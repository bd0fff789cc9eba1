package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
)

// Header identifies the producing tool in a serialized snapshot; CLIs
// fill it from cliutil.Version.
type Header struct {
	Tool    string `json:"tool,omitempty"`
	Version string `json:"version,omitempty"`
}

// Snapshot is a point-in-time, JSON-marshalable view of a registry. It is
// the standing machine-readable stats format: sfs-run -stats-json and
// sfs-report emit it, the sfsbench benchmark reads its per-layer budget
// from it, and /stats.json serves it live.
type Snapshot struct {
	Tool      string    `json:"tool,omitempty"`
	Version   string    `json:"version,omitempty"`
	GoVersion string    `json:"go_version"`
	Time      time.Time `json:"time"`
	// UptimeSec is the registry's age — for the Default registry,
	// effectively the process uptime.
	UptimeSec float64 `json:"uptime_sec"`

	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
}

// HistSnapshot is one histogram's serialized form. All values are in the
// histogram's native unit — nanoseconds for every duration histogram the
// stack records.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	// Buckets lists the non-empty buckets as (inclusive upper bound,
	// non-cumulative count) pairs; the overflow bucket has Le = -1.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Snapshot captures the registry's current figures. Empty metrics are
// included (a zero counter is information), torn in-flight observations
// are tolerated.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		GoVersion: runtime.Version(),
		Time:      time.Now(),
		UptimeSec: time.Since(r.created).Seconds(),
		Counters:  make(map[string]int64),
		Gauges:    make(map[string]int64),
		Hists:     make(map[string]HistSnapshot),
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range hists {
		snap.Hists[name] = snapshotHist(h)
	}
	return snap
}

func snapshotHist(h *Histogram) HistSnapshot {
	hs := HistSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for i := 0; i <= histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := int64(-1)
		if i < histBuckets {
			le = histBound(i)
		}
		hs.Buckets = append(hs.Buckets, BucketCount{Le: le, Count: n})
	}
	return hs
}

// WriteJSON writes the registry's snapshot to w as indented JSON, stamped
// with the header.
func (r *Registry) WriteJSON(w io.Writer, h Header) error {
	snap := r.Snapshot()
	snap.Tool, snap.Version = h.Tool, h.Version
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (a hand-rolled writer — the package stays dependency-free).
// Metric names are prefixed "sfs_" and sanitized; duration histograms
// keep their nanosecond unit and carry a "_ns" suffix convention at the
// recording site, not here.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	var b strings.Builder
	for _, name := range sortedKeys(snap.Counters) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", pn, pn, snap.Gauges[name])
	}
	for _, name := range sortedKeys(snap.Hists) {
		hs := snap.Hists[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		var cum int64
		for _, bc := range hs.Buckets {
			if bc.Le < 0 {
				continue // overflow: folded into +Inf below
			}
			cum += bc.Count
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", pn, bc.Le, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, hs.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", pn, hs.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", pn, hs.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName sanitizes a metric name for the Prometheus exposition format.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("sfs_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
