package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter is not get-or-create: second lookup returned a new handle")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	g.SetMax(2)
	if got := g.Value(); got != 4 {
		t.Fatalf("SetMax lowered the gauge to %d", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax = %d, want 9", got)
	}
}

// TestCounterConcurrentExact: counters must be exact under contention, not
// merely racy approximations — run with -race.
func TestCounterConcurrentExact(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mix hoisted and by-name access: both must hit the same cell.
			c := r.Counter("hot")
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					r.Counter("hot").Inc()
				}
				r.Histogram("lat").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hot").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramBuckets(t *testing.T) {
	// Bounds are 1µs·2^i; values land in the first bucket whose bound they
	// do not exceed.
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0},
		{1000, 0},                     // exactly the first bound
		{1001, 1},                     // just past it
		{2000, 1},                     // second bound
		{2001, 2},                     // just past
		{1000 << 27, histBuckets - 1}, // last finite bound
		{1000<<27 + 1, histBuckets},   // overflow
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	h := &Histogram{}
	h.Observe(-5) // clamps to 0
	if got := h.Max(); got != 0 {
		t.Fatalf("negative observation raised max to %d", got)
	}
	h.Observe(1500)
	if got, want := h.Count(), int64(2); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), int64(1500); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if got, want := h.Max(), int64(1500); got != want {
		t.Fatalf("max = %d, want %d", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 100 observations spread across two buckets: 50 at ~1.5µs (bucket 1),
	// 50 at ~3µs (bucket 2).
	for i := 0; i < 50; i++ {
		h.Observe(1500)
		h.Observe(3000)
	}
	p25, p75 := h.Quantile(0.25), h.Quantile(0.75)
	// p25 must interpolate inside (1000, 2000], p75 inside (2000, 4000] —
	// but the upper edge is tightened to the observed max (3000).
	if p25 <= 1000 || p25 > 2000 {
		t.Errorf("p25 = %d, want in (1000, 2000]", p25)
	}
	if p75 <= 2000 || p75 > 3000 {
		t.Errorf("p75 = %d, want in (2000, 3000]", p75)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Error("quantile not monotone at the extremes")
	}
	if got, want := h.Quantile(1), h.Max(); got > want {
		t.Errorf("p100 = %d exceeds max %d", got, want)
	}
	// Overflow bucket reports the observed maximum exactly.
	o := &Histogram{}
	huge := int64(1000<<27) * 3
	o.Observe(huge)
	if got := o.Quantile(0.99); got != huge {
		t.Errorf("overflow p99 = %d, want max %d", got, huge)
	}
}

func TestRegistryIsolationAndReset(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x").Add(5)
	if got := b.Counter("x").Value(); got != 0 {
		t.Fatalf("registry b saw registry a's counter: %d", got)
	}
	a.Gauge("g").Set(3)
	a.Histogram("h").Observe(100)
	a.Reset()
	if a.Counter("x").Value() != 0 || a.Gauge("g").Value() != 0 || a.Histogram("h").Count() != 0 {
		t.Fatal("Reset left nonzero metrics")
	}
	// Handles created before Reset stay live.
	a.Counter("x").Inc()
	if got := a.Counter("x").Value(); got != 1 {
		t.Fatalf("post-Reset counter = %d, want 1", got)
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	var events []SpanEvent
	r.OnSpanEnd(func(e SpanEvent) { events = append(events, e) })

	root := r.Span("run")
	child := root.Child("check")
	if got, want := child.Path(), "run/check"; got != want {
		t.Fatalf("child path = %q, want %q", got, want)
	}
	child.End()
	root.End()

	if r.Histogram("span.run/check").Count() != 1 || r.Histogram("span.run").Count() != 1 {
		t.Fatal("span durations not recorded as histograms")
	}
	if len(events) != 2 || events[0].Path != "run/check" || events[1].Path != "run" {
		t.Fatalf("span events = %+v", events)
	}

	// Context plumbing: StartSpan nests under the context's span.
	ctx, outer := StartSpan(context.Background(), r, "outer")
	_, inner := StartSpan(ctx, r, "inner")
	if got, want := inner.Path(), "outer/inner"; got != want {
		t.Fatalf("ctx-nested path = %q, want %q", got, want)
	}
	inner.End()
	outer.End()

	// Nil spans are always-off, never panic.
	var nilSpan *Span
	nilSpan.Child("x").End()
	if nilSpan.Path() != "" {
		t.Fatal("nil span path")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("pipeline.jobs").Add(3)
	r.Histogram("pipeline.job_ns").Observe(5000)
	var buf strings.Builder
	if err := r.WriteJSON(&buf, Header{Tool: "test-tool", Version: "v1.2.3"}); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &snap); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if snap.Tool != "test-tool" || snap.Version != "v1.2.3" {
		t.Fatalf("header = %q/%q", snap.Tool, snap.Version)
	}
	if snap.Counters["pipeline.jobs"] != 3 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	h := snap.Hists["pipeline.job_ns"]
	if h.Count != 1 || h.Sum != 5000 || h.Max != 5000 {
		t.Fatalf("histogram snapshot = %+v", h)
	}
	if len(h.Buckets) != 1 || h.Buckets[0].Le != 8000 || h.Buckets[0].Count != 1 {
		t.Fatalf("buckets = %+v", h.Buckets)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("checker.traces").Add(7)
	r.Gauge("fuzz.corpus_size").Set(4)
	h := r.Histogram("journal.append_ns")
	h.Observe(1500)
	h.Observe(3000)
	h.Observe(int64(1000<<27) * 2) // overflow
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE sfs_checker_traces counter\nsfs_checker_traces 7\n",
		"# TYPE sfs_fuzz_corpus_size gauge\nsfs_fuzz_corpus_size 4\n",
		"# TYPE sfs_journal_append_ns histogram\n",
		`sfs_journal_append_ns_bucket{le="2000"} 1`,
		`sfs_journal_append_ns_bucket{le="4000"} 2`, // cumulative
		`sfs_journal_append_ns_bucket{le="+Inf"} 3`, // overflow folded in
		"sfs_journal_append_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestDebugServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	srv, err := ServeDebug("127.0.0.1:0", r, Header{Tool: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}
	if out := get("/metrics"); !strings.Contains(out, "sfs_c 1") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/stats.json"); !strings.Contains(out, `"tool": "t"`) {
		t.Errorf("/stats.json missing header:\n%s", out)
	}
	get("/debug/pprof/")
	get("/debug/vars")
}

// TestHTTPServerCutsOffStalledHeaders: a client that never finishes its
// request headers is disconnected once readHeaderTimeout passes, on the
// debug endpoint and on any server NewHTTPServer builds (sfs-serve's).
func TestHTTPServerCutsOffStalledHeaders(t *testing.T) {
	if srv := NewHTTPServer(http.NotFoundHandler()); srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 || srv.WriteTimeout != 0 {
		t.Fatalf("bounds: read-header %v, idle %v, write %v; want the first two set and no write timeout (live NDJSON streams)",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond

	dbg, err := ServeDebug("127.0.0.1:0", NewRegistry(), Header{Tool: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer(http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	for _, addr := range []string{dbg.Addr(), ln.Addr().String()} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: connection with unfinished headers still open after 5s", addr)
		}
	}
}

func TestOr(t *testing.T) {
	if Or(nil) != Default {
		t.Fatal("Or(nil) != Default")
	}
	r := NewRegistry()
	if Or(r) != r {
		t.Fatal("Or(r) != r")
	}
}

func TestObserveSince(t *testing.T) {
	h := &Histogram{}
	h.ObserveSince(time.Now().Add(-2 * time.Millisecond))
	if h.Count() != 1 || h.Max() < int64(time.Millisecond) {
		t.Fatalf("ObserveSince recorded count=%d max=%d", h.Count(), h.Max())
	}
}
