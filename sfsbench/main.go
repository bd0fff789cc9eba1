// Command sfsbench is the checker's standing benchmark. It runs one fixed
// workload through the Session API for a fixed time, checks every output,
// and prints one JSON result line. Run it from the repository root:
//
//	bash sfsbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
//
// A pass is what one or more sfs-run invocations do: open a result store,
// run the pipeline (key pass, cache lookups, execute, check, store, journal
// append, finalize) and close the store. The seed generates the pass's
// inputs. Set-up generates them, then makes one unmeasured reference pass
// whose journals every measured pass must reproduce byte for byte.
//
// --trace 0 reports the end-to-end metrics: throughput over the median
// pass and set-up time. --trace 1 reports the per-layer budget, each
// part's median over the passes, and the process's peak memory. The
// checker records its telemetry in both modes (it cannot be switched off);
// the modes differ only in what is reported.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	sibylfs "repro"
)

const (
	// setups is how many times a run sets up; setup_s is their median and
	// the last set-up's inputs are the ones measured.
	setups = 3
	// minPasses keeps the medians meaningful when a pass outlasts --seconds.
	minPasses = 3
	// workRoot holds every file a run writes, inside the checkout.
	workRoot = ".bench_build"
)

func main() {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "0 = report end-to-end metrics, 1 = report the per-layer budget")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := bench(context.Background(), w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfsbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfsbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// instance is one set-up's outcome: the workload's inputs and the
// outputs every pass must reproduce.
type instance struct {
	runs []run
	warm bool
	// store is the filled result store warm passes reopen.
	store string
	// want holds each run's finalized-journal digest from the reference
	// pass.
	want []string
}

// pass is one measured pass.
type pass struct {
	// wall = open + run + close + the benchmark's own bookkeeping.
	wall, open, run, close time.Duration
	traces, failed         int
	digests                []string
	tel                    *sibylfs.TelemetryRegistry
}

func bench(ctx context.Context, w workload, seed int64, measure time.Duration, traced bool) (result, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(workRoot, "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)

	var inst *instance
	var setupS []float64
	setupDir := filepath.Join(work, "setup")
	for i := 0; i < setups; i++ {
		if err := os.RemoveAll(setupDir); err != nil {
			return result{}, err
		}
		runtime.GC()
		start := time.Now()
		inst, err = setup(ctx, w, seed, setupDir)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	// Keep only a few numbers per pass: holding passes' registries would
	// grow the heap, and with it every later pass's GC work.
	res := result{Metrics: make(map[string]metric)}
	var wallMS []float64
	budget := make(map[string][]float64)
	deadline := time.Now().Add(measure)
	for i := 0; len(wallMS) < minPasses || time.Now().Before(deadline); i++ {
		runtime.GC()
		p, err := runPass(ctx, inst.runs, inst.store, filepath.Join(work, fmt.Sprintf("pass-%d", i)), inst.warm, inst.want)
		if err != nil {
			return result{}, err
		}
		res.Attempted += p.traces
		res.Failed += p.failed
		wallMS = append(wallMS, ms(p.wall))
		if traced {
			for name, v := range layers(p) {
				budget[name] = append(budget[name], v)
			}
		}
	}
	res.Correct = res.Failed == 0
	if !traced {
		// Every pass of a workload checks the same number of traces.
		perPass := float64(res.Attempted) / float64(len(wallMS))
		res.Metrics["traces_per_s"] = metric{perPass / (median(wallMS) / 1000), "1/s"}
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		return res, nil
	}
	for name, vs := range budget {
		res.Metrics[name] = metric{median(vs), unit(name)}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, err
	}
	res.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MiB"} // Maxrss is in KiB on Linux
	return res, nil
}

// setup generates the workload's inputs from the seed and makes the
// reference pass, which must execute every job and accept every trace. A
// warm workload keeps the reference pass's store.
func setup(ctx context.Context, w workload, seed int64, dir string) (*instance, error) {
	runs, err := w.runs(ctx, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	store := filepath.Join(dir, "store")
	ref, err := runPass(ctx, runs, store, filepath.Join(dir, "ref"), false, nil)
	if err != nil {
		return nil, err
	}
	if ref.failed > 0 {
		return nil, fmt.Errorf("reference pass: %d of %d traces failed", ref.failed, ref.traces)
	}
	inst := &instance{runs: runs, warm: w.warm, want: ref.digests}
	if w.warm {
		inst.store = store
	} else if err := os.RemoveAll(store); err != nil {
		return nil, err
	}
	return inst, nil
}

// runPass makes each run once against the result store at storeDir (a
// fresh one in dir when storeDir is ""), then checks the outputs: each run
// yields one accepted record per script, executes every job (or, warm,
// serves every job from the cache) and finalizes a journal whose digest
// matches want, when want is given. Every trace of a run that breaks any
// of these counts as failed. dir is removed afterwards.
func runPass(ctx context.Context, runs []run, storeDir, dir string, warm bool, want []string) (pass, error) {
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return pass{}, err
	}
	if storeDir == "" {
		storeDir = filepath.Join(dir, "store")
	}
	p := pass{tel: sibylfs.NewTelemetryRegistry()}
	type outcome struct {
		records []sibylfs.PipelineRecord
		stats   sibylfs.PipelineStats
	}
	outs := make([]outcome, len(runs))

	start := time.Now()
	store, err := sibylfs.OpenPackStore(storeDir)
	if err != nil {
		return pass{}, err
	}
	p.open = time.Since(start)
	for i, r := range runs {
		s := sibylfs.New(
			sibylfs.WithSpec(r.spec),
			sibylfs.WithStore(store),
			sibylfs.WithJournal(journalPath(dir, i)),
			sibylfs.WithTelemetry(p.tel),
		)
		runStart := time.Now()
		outs[i].records, outs[i].stats, err = s.Run(ctx, r.job)
		p.run += time.Since(runStart)
		if err != nil {
			store.Close()
			return pass{}, fmt.Errorf("%s: %w", r.job.Name, err)
		}
	}
	closeStart := time.Now()
	if err := store.Close(); err != nil {
		return pass{}, err
	}
	p.close = time.Since(closeStart)
	p.wall = time.Since(start)

	for i, r := range runs {
		n := len(r.job.Scripts)
		p.traces += n
		digest, err := fileDigest(journalPath(dir, i))
		if err != nil {
			return pass{}, err
		}
		p.digests = append(p.digests, digest)
		st := outs[i].stats
		served := st.Executed == n && st.CacheHits == 0
		if warm {
			served = st.CacheHits == n && st.Executed == 0
		}
		if len(outs[i].records) != n || !served || (want != nil && digest != want[i]) {
			p.failed += n
			continue
		}
		for _, rec := range outs[i].records {
			if !rec.Accepted {
				p.failed++
			}
		}
	}
	return p, nil
}

func journalPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("run-%d.jsonl", i))
}

func fileDigest(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
