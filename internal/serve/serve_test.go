package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	sibylfs "repro"
	"repro/internal/cliutil"
	"repro/internal/serveapi"
	"repro/internal/telemetry"
)

// inlineScripts builds n small script texts — the inline-suite form a
// JobSpec carries over the wire.
func inlineScripts(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf(`@type script
# Test serve___job_%03d
mkdir "d%d" 0o755
open "d%d/f" [O_CREAT;O_WRONLY] 0o644
stat "d%d/f"
rename "d%d" "e%d"
unlink "e%d/f"
rmdir "e%d"
`, i, i, i, i, i, i, i, i))
	}
	return out
}

// localJournal runs the same inline suite through a plain local Session
// — the reference sfs-run would produce — and returns the finalized
// journal bytes.
func localJournal(t *testing.T, name string, texts []string, workers int, opts ...sibylfs.Option) []byte {
	t.Helper()
	pl, ok := sibylfs.ParsePlatformName("linux")
	if !ok {
		t.Fatal("linux platform missing")
	}
	spec := sibylfs.SpecFor(pl)
	spec.Permissions = true
	var scripts []*sibylfs.Script
	for i, text := range texts {
		sc, err := sibylfs.ParseScript(text)
		if err != nil {
			t.Fatalf("scripts[%d]: %v", i, err)
		}
		scripts = append(scripts, sc)
	}
	target, err := cliutil.Resolve("ext4", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	session := sibylfs.New(append([]sibylfs.Option{
		sibylfs.WithSpec(spec),
		sibylfs.WithWorkers(workers),
		sibylfs.WithJournal(journal),
		sibylfs.WithTelemetry(telemetry.NewRegistry()),
	}, opts...)...)
	_, _, err = session.Run(context.Background(), sibylfs.RunJob{
		Name:    name,
		Scripts: scripts,
		Factory: target.Factory,
		FSName:  "ext4",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t *testing.T, dataDir string, jobs, workers int) (*Server, *serveapi.Client, func()) {
	t.Helper()
	srv, err := New(Options{
		DataDir: dataDir,
		Jobs:    jobs,
		Workers: workers,
		Tel:     telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The daemon's own server settings (sfs-serve's), not httptest's.
	hs := httptest.NewUnstartedServer(nil)
	hs.Config = telemetry.NewHTTPServer(srv.Handler())
	hs.Start()
	stop := func() {
		hs.Close()
		srv.Close()
	}
	return srv, serveapi.NewClient(hs.URL), stop
}

// TestServeParityColdWarm pins end-to-end service parity: a suite
// submitted to the daemon finalizes byte-identical to a local sfs-run
// of the same suite — cold, and again warm from the shared store with
// zero executions.
func TestServeParityColdWarm(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	texts := inlineScripts(12)
	want := localJournal(t, "parity", texts, 2)

	_, client, stop := newTestServer(t, t.TempDir(), 1, 2)
	defer stop()

	spec := serveapi.JobSpec{Name: "parity", FS: "ext4", Scripts: texts, Workers: 2}
	st, err := client.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := client.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cold.State != serveapi.StateDone {
		t.Fatalf("cold job state = %s (%s)", cold.State, cold.Error)
	}
	if cold.Executed != len(texts) || cold.CacheHits != 0 {
		t.Fatalf("cold split: executed %d, hits %d, want %d/0", cold.Executed, cold.CacheHits, len(texts))
	}
	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cold serve result differs from local run (%d vs %d bytes)", len(got), len(want))
	}

	// Warm resubmission: everything is served from the shared store.
	st2, err := client.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := client.Wait(ctx, st2.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != serveapi.StateDone {
		t.Fatalf("warm job state = %s (%s)", warm.State, warm.Error)
	}
	if warm.Executed != 0 || warm.CacheHits != len(texts) {
		t.Fatalf("warm split: executed %d, hits %d, want 0/%d", warm.Executed, warm.CacheHits, len(texts))
	}
	got2, err := client.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatal("warm serve result differs from local run")
	}
}

// TestServeJobStatsCoverWholeJob: a job's stats hold everything its run
// did, generation and execution included, not only the pipeline's share:
// every generated script reaches the pipeline, and every executed one is
// counted by exec. The crash universe keeps the suite small while
// running on the sequential executor.
func TestServeJobStatsCoverWholeJob(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	srv, client, stop := newTestServer(t, t.TempDir(), 1, 2)
	defer stop()
	st, err := client.SubmitJob(ctx, serveapi.JobSpec{FS: "ext4", Universe: cliutil.UniverseCrash})
	if err != nil {
		t.Fatal(err)
	}
	done, err := client.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != serveapi.StateDone || done.Executed == 0 {
		t.Fatalf("job state %s (%s), executed %d", done.State, done.Error, done.Executed)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/stats", nil))
	var snap telemetry.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("stats: %v\n%s", err, rec.Body.String())
	}
	c := snap.Counters
	if c["testgen.scripts"] != c["pipeline.jobs"] || c["pipeline.jobs"] != int64(done.Jobs) {
		t.Errorf("testgen.scripts %d, pipeline.jobs %d, job's jobs %d: want all equal",
			c["testgen.scripts"], c["pipeline.jobs"], done.Jobs)
	}
	if c["exec.traces"] != c["pipeline.executed"] || c["pipeline.executed"] != int64(done.Executed) {
		t.Errorf("exec.traces %d, pipeline.executed %d, job's executed %d: want all equal",
			c["exec.traces"], c["pipeline.executed"], done.Executed)
	}
}

// TestServeRecordsStream pins the live NDJSON stream: a subscriber that
// attaches while the job runs sees every record and returns when the
// job settles.
func TestServeRecordsStream(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	texts := inlineScripts(10)
	_, client, stop := newTestServer(t, t.TempDir(), 1, 1)
	defer stop()

	st, err := client.SubmitJob(ctx, serveapi.JobSpec{FS: "ext4", Scripts: texts})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	if err := client.Records(ctx, st.ID, func(_ sibylfs.PipelineRecord) { seen++ }); err != nil {
		t.Fatal(err)
	}
	if seen != len(texts) {
		t.Fatalf("streamed %d records, want %d", seen, len(texts))
	}
	final, err := client.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serveapi.StateDone || final.Records != len(texts) {
		t.Fatalf("final status: %s with %d records", final.State, final.Records)
	}
}

// TestServeCutsOffStalledSubmit: a submission whose body stalls part-way
// is answered and its connection dropped once bodyReadTimeout passes,
// and no job is created.
func TestServeCutsOffStalledSubmit(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 100 * time.Millisecond
	_, client, stop := newTestServer(t, t.TempDir(), 1, 1)
	defer stop()
	conn, err := net.Dial("tcp", strings.TrimPrefix(client.Base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Promise 100 body bytes, send part of a spec, then stall.
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: serve\r\nContent-Length: 100\r\n\r\n{\"fs\": \"ext4\"")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("connection still open 5s after the body stalled: %v", err)
	}
	if !bytes.HasPrefix(resp, []byte("HTTP/1.1 400")) {
		t.Errorf("response %q, want a 400", resp)
	}
	jobs, err := client.Jobs(context.Background())
	if err != nil || len(jobs) != 0 {
		t.Errorf("jobs after a stalled submission: %v, %v; want none", jobs, err)
	}
}

// TestServeRecordsStreamOutlivesBodyTimeout: only the routes that read a
// body set a read deadline, so a live records stream (on the keep-alive
// connection the submission used) runs for as long as its job does, well
// past bodyReadTimeout, and delivers every record. A deadline on the
// stream's own request would cancel its context and cut it short.
func TestServeRecordsStreamOutlivesBodyTimeout(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 25 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, client, stop := newTestServer(t, t.TempDir(), 1, 1)
	defer stop()

	st, err := client.SubmitJob(ctx, serveapi.JobSpec{FS: "ext4", Sample: 10})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	seen := 0
	if err := client.Records(ctx, st.ID, func(_ sibylfs.PipelineRecord) { seen++ }); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	final, err := client.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serveapi.StateDone || seen != final.Records || seen == 0 {
		t.Fatalf("streamed %d records in %v; the job ended %s with %d", seen, took, final.State, final.Records)
	}
	if took < 4*bodyReadTimeout {
		t.Fatalf("the stream took %v, too short to outlive the %v deadline", took, bodyReadTimeout)
	}
}

// TestServeRestartResume pins the crash-recovery contract. The on-disk
// state of a daemon killed mid-job is fabricated directly — a job
// directory holding the spec and a non-terminal status, and a shared
// store holding the records of a prefix of the suite — so the test is
// deterministic no matter how fast the suite runs. A daemon started on
// that data directory must re-enqueue the job, hit every stored trace,
// and finalize byte-identical to a local run of the whole suite.
func TestServeRestartResume(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	texts := inlineScripts(160)
	const prefix = 40
	dataDir := t.TempDir()

	spec := serveapi.JobSpec{Name: "resume", FS: "ext4", Scripts: texts, Workers: 1}
	id := "000000000001-0001"
	jobDir := filepath.Join(dataDir, "jobs", id)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	specData, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "job.json"), specData, 0o644); err != nil {
		t.Fatal(err)
	}
	running := serveapi.JobStatus{ID: id, Name: "resume", State: serveapi.StateRunning, Records: prefix}
	statusData, err := json.Marshal(running)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "status.json"), statusData, 0o644); err != nil {
		t.Fatal(err)
	}
	// The store a killed daemon left behind: the first `prefix` traces,
	// completed and durably stored.
	store, err := sibylfs.OpenPackStore(filepath.Join(dataDir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	localJournal(t, "resume", texts[:prefix], 1, sibylfs.WithStore(store))
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	_, client, stop := newTestServer(t, dataDir, 1, 1)
	defer stop()
	final, err := client.Wait(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serveapi.StateDone {
		t.Fatalf("resumed job state = %s (%s)", final.State, final.Error)
	}
	if final.CacheHits != prefix {
		t.Fatalf("resumed job hit %d traces, want the %d stored ones", final.CacheHits, prefix)
	}
	if final.Executed != len(texts)-prefix {
		t.Fatalf("resumed job executed %d traces, want %d", final.Executed, len(texts)-prefix)
	}
	got, err := client.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	want := localJournal(t, "resume", texts, 1)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from local run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestServeCloseMidJobRequeues pins the shutdown path end to end: a
// daemon Closed with a job in flight leaves it non-terminal on disk (a
// shutdown is not a cancel), and the next daemon life finishes it with
// the full, byte-identical result.
func TestServeCloseMidJobRequeues(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	texts := inlineScripts(200)
	dataDir := t.TempDir()

	_, client, stop := newTestServer(t, dataDir, 1, 1)
	st, err := client.SubmitJob(ctx, serveapi.JobSpec{Name: "requeue", FS: "ext4", Scripts: texts, Workers: 1})
	if err != nil {
		stop()
		t.Fatal(err)
	}
	stop() // drain immediately: the job is queued or mid-run, never cancelled

	_, client2, stop2 := newTestServer(t, dataDir, 1, 1)
	defer stop2()
	final, err := client2.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serveapi.StateDone {
		t.Fatalf("requeued job state = %s (%s)", final.State, final.Error)
	}
	got, err := client2.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := localJournal(t, "requeue", texts, 1)
	if !bytes.Equal(got, want) {
		t.Fatalf("requeued result differs from local run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestServeCancel pins API cancellation: a cancelled job settles
// terminally and a daemon restart does NOT resurrect it.
func TestServeCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	texts := inlineScripts(160)
	dataDir := t.TempDir()

	_, client, stop := newTestServer(t, dataDir, 1, 1)
	st, err := client.SubmitJob(ctx, serveapi.JobSpec{FS: "ext4", Scripts: texts, Workers: 1})
	if err != nil {
		stop()
		t.Fatal(err)
	}
	if err := client.Cancel(ctx, st.ID); err != nil {
		stop()
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	if final.State != serveapi.StateCancelled && final.State != serveapi.StateDone {
		stop()
		t.Fatalf("state after cancel = %s", final.State)
	}
	stop()

	srv2, err := New(Options{DataDir: dataDir, Jobs: 1, Tel: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	j, ok := srv2.job(st.ID)
	if !ok {
		t.Fatal("restarted daemon forgot the job")
	}
	if !j.terminal() {
		t.Fatalf("terminal job resurrected as %q", j.status().State)
	}
}

// TestSubmitValidation pins the rejection surface: bad specs never
// reach a queue.
func TestSubmitValidation(t *testing.T) {
	srv, err := New(Options{DataDir: t.TempDir(), Jobs: 1, Tel: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		name string
		spec serveapi.JobSpec
	}{
		{"empty fs", serveapi.JobSpec{}},
		{"host jailed", serveapi.JobSpec{FS: "host"}},
		{"bad universe", serveapi.JobSpec{FS: "ext4", Universe: "galactic"}},
		{"bad platform", serveapi.JobSpec{FS: "ext4", Platform: "plan9"}},
		{"bad script", serveapi.JobSpec{FS: "ext4", Scripts: []string{"not a script"}}},
	} {
		if _, err := srv.Submit(tc.spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSchedulerFIFO pins the job order: queued jobs start in submission
// order whichever worker is free. Here one worker is busy on B while C, D,
// E and F are submitted, and the other worker must start them as C, D, E,
// F (per-worker deques with stealing started them as C, E, F, D).
func TestSchedulerFIFO(t *testing.T) {
	reg := telemetry.NewRegistry()
	sc := newSched(reg)
	mk := func(id string) *job { return newJob(id, serveapi.JobSpec{}, "") }
	a, b := mk("A"), mk("B")
	sc.push(a)
	sc.push(b)
	if g, _ := sc.pop(); g != a {
		t.Fatalf("first pop = %s, want A", g.id)
	}
	if g, _ := sc.pop(); g != b {
		t.Fatalf("second pop = %s, want B", g.id)
	}
	jobs := []*job{mk("C"), mk("D"), mk("E"), mk("F")}
	for _, j := range jobs {
		sc.push(j)
	}
	if n := reg.Gauge("serve.queue_depth").Value(); n != 4 {
		t.Fatalf("serve.queue_depth = %d, want 4", n)
	}
	for _, want := range jobs {
		if g, _ := sc.pop(); g != want {
			t.Fatalf("pop = %s, want %s", g.id, want.id)
		}
	}
	if n := reg.Gauge("serve.queue_depth").Value(); n != 0 {
		t.Fatalf("serve.queue_depth = %d after draining, want 0", n)
	}
}

// TestSchedulerCloseWakesWorkers: workers blocked on an empty queue all
// return "no more work" when the scheduler closes.
func TestSchedulerCloseWakesWorkers(t *testing.T) {
	sc := newSched(telemetry.NewRegistry())
	const workers = 3
	done := make(chan bool, workers)
	for range workers {
		go func() {
			_, ok := sc.pop()
			done <- ok
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the workers block in pop
	sc.close()
	for range workers {
		select {
		case ok := <-done:
			if ok {
				t.Fatal("pop after close reported work")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("close left a worker blocked in pop")
		}
	}
	if _, ok := sc.pop(); ok {
		t.Fatal("pop on a closed, empty scheduler reported work")
	}
}
