package main

import (
	"context"
	"fmt"
	"math/rand"

	sibylfs "repro"
)

// A run is one sfs-run invocation: one suite checked against one model
// variant by one pipeline run, journaled to its own JSONL sink.
type run struct {
	spec sibylfs.Spec
	job  sibylfs.RunJob
}

// A workload generates its inputs from the seed: the runs every pass
// makes, all sharing one result store.
type workload struct {
	// warm passes reopen the store that set-up filled, so every job is a
	// cache hit; the other passes start from an empty store, so every job
	// executes and is checked.
	warm bool
	runs func(ctx context.Context, rng *rand.Rand) ([]run, error)
}

// Each workload stresses different layers; BENCHMARK.json gives the same
// reasons.
var workloads = map[string]workload{
	// A seeded quarter of the sequential suite on an empty cache: key pass,
	// execute, check, store, journal and finalize for every trace.
	"cold": {runs: sequentialSample},
	// The cold sample again on a filled cache: key pass, cache lookups,
	// record decode, journal and finalize, with no execution.
	"warm": {runs: sequentialSample, warm: true},
	// A synthetic mix that covers the parts of the model sequential traces
	// barely use: conc___ under many seeded schedules (concurrent executor,
	// multi-state tau-closure), then crash___ on four platforms
	// (persistence-aware oracle, crash-state enumeration). It is not the
	// traffic of any real campaign; see oracleMix for its proportions.
	"oracle": {runs: oracleMix},
}

// sampleShare is the sequential suite's share one cold or warm pass checks
// (one script in sampleShare): enough traces that two seeds' samples cost
// the same to within about a percent and that a pass's fixed costs (store
// and journal set-up, finalize) do not dominate it, few enough for a few
// dozen passes a run.
const sampleShare = 4

// sequentialSample checks a seeded sample of the sequential suite against
// the conforming ext4 profile.
func sequentialSample(ctx context.Context, rng *rand.Rand) ([]run, error) {
	scripts, err := sibylfs.New().Generate(ctx)
	if err != nil {
		return nil, err
	}
	var sample []*sibylfs.Script
	for _, s := range scripts {
		if rng.Intn(sampleShare) == 0 {
			sample = append(sample, s)
		}
	}
	return []run{{
		spec: sibylfs.SpecFor(sibylfs.Linux),
		job: sibylfs.RunJob{
			Name:    "ext4 vs linux",
			Scripts: sample,
			Factory: sibylfs.MemFS(sibylfs.LinuxProfile("ext4")),
			FSName:  "ext4",
		},
	}}, nil
}

// schedules is how many distinct seeded schedules an oracle pass checks
// the concurrent universe (18 scripts) under. How much a schedule costs
// to check varies widely, so a pass needs over a hundred of them before
// two seeds' passes cost the same; every pass checks the same ones, so
// what a run measures does not depend on how many passes fit in it.
const schedules = 160

// oracleMix is the concurrent sweep followed by the crash survey. The
// crash survey cannot grow with the sweep: a second run of the same
// crash script against the same model variant would be a cache hit. So
// it is a small share of the pass, and the sweep sets the pass's length.
func oracleMix(ctx context.Context, rng *rand.Rand) ([]run, error) {
	sweep, err := concurrentSweep(ctx, rng)
	if err != nil {
		return nil, err
	}
	crash, err := crashSurvey(ctx, rng)
	if err != nil {
		return nil, err
	}
	return append(sweep, crash...), nil
}

// concurrentSweep checks the concurrent universe under distinct seeded
// schedules, one run per schedule, as `sfs-run -concurrent -sched-seed N`
// does for one N.
func concurrentSweep(ctx context.Context, rng *rand.Rand) ([]run, error) {
	scripts, err := sibylfs.New().GenerateConcurrent(ctx)
	if err != nil {
		return nil, err
	}
	seen := make(map[int64]bool)
	var runs []run
	for len(runs) < schedules {
		seed := 1 + rng.Int63n(1<<40)
		if seen[seed] {
			continue // a repeated schedule would be a cache hit
		}
		seen[seed] = true
		runs = append(runs, run{
			spec: sibylfs.SpecFor(sibylfs.Linux),
			job: sibylfs.RunJob{
				Name:       fmt.Sprintf("ext4 sched %d", seed),
				Scripts:    scripts,
				Factory:    sibylfs.MemFS(sibylfs.LinuxProfile("ext4")),
				FSName:     "ext4",
				Concurrent: true,
				SchedSeed:  seed,
			},
		})
	}
	return runs, nil
}

// crashSurvey checks the crash universe against each platform's
// conforming crash-capable memfs and its determinized model, each run
// taking the scripts in its own seeded order.
func crashSurvey(ctx context.Context, rng *rand.Rand) ([]run, error) {
	scripts, err := sibylfs.New().GenerateCrash(ctx)
	if err != nil {
		return nil, err
	}
	var runs []run
	for _, p := range []sibylfs.Profile{
		sibylfs.LinuxProfile("ext4"),
		sibylfs.PosixProfile("posixfs"),
		sibylfs.OSXProfile("hfsplus"),
		sibylfs.FreeBSDProfile("ufs"),
	} {
		p.Crash = true
		spec := sibylfs.SpecFor(p.Platform)
		spec.Crash = true
		impls := []struct {
			name    string
			factory sibylfs.Factory
		}{
			{p.Name, sibylfs.MemFS(p)},
			{"spec-" + p.Name, sibylfs.SpecFS("spec-"+p.Name, spec)},
		}
		for _, impl := range impls {
			order := append([]*sibylfs.Script(nil), scripts...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			runs = append(runs, run{
				spec: spec,
				job: sibylfs.RunJob{
					Name:    impl.name + " crash",
					Scripts: order,
					Factory: impl.factory,
					FSName:  impl.name,
				},
			})
		}
	}
	return runs, nil
}
