// Package serveapi is the wire vocabulary of the sfs-serve check
// service — job specs, job statuses and the Go client — kept free of
// the daemon's dependencies so the root sibylfs package can re-export
// the client while internal/serve builds the server on top of the
// Session facade.
package serveapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/pipeline"
)

// JobSpec describes one suite submission: which scripts to run (a
// generated universe or inline script texts), which implementation to
// run them against, and the run configuration. The zero values mean
// "the daemon's defaults" throughout.
type JobSpec struct {
	// Name labels the job in statuses and summaries (default "FS vs
	// PLATFORM", like sfs-run).
	Name string `json:"name,omitempty"`
	// Universe selects the generated suite: "sequential" (default),
	// "concurrent" (multi-process universe, concurrent executor) or
	// "crash" (crash-consistency universe, persistence-aware oracle).
	Universe string `json:"universe,omitempty"`
	// Scripts are inline script texts (the .script format); when set
	// they replace the generated universe as the suite. Universe still
	// selects the executor/oracle mode.
	Scripts []string `json:"scripts,omitempty"`
	// FS names the implementation under test, exactly like sfs-run -fs:
	// a memfs survey profile, "spec:PLATFORM", or any other name for a
	// conforming Linux memfs. "host" is rejected — the daemon shares its
	// process with other tenants' jobs.
	FS string `json:"fs"`
	// Platform overrides the model variant (default: the
	// implementation's native platform).
	Platform string `json:"platform,omitempty"`
	// NoPerms disables the permissions trait.
	NoPerms bool `json:"noperms,omitempty"`
	// Sample keeps every Nth script (≤ 1 = all).
	Sample int `json:"sample,omitempty"`
	// Workers overrides the daemon's per-job pipeline worker bound.
	Workers int `json:"workers,omitempty"`
	// SchedSeed seeds the deterministic scheduler for the concurrent
	// universe (0 = free-running).
	SchedSeed int64 `json:"sched_seed,omitempty"`
	// MaxStateSet caps the oracle's tracked state set (0 = default).
	MaxStateSet int `json:"max_state_set,omitempty"`
}

// Job states, as JobStatus.State reports them.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// TerminalState reports whether a job in state will never change again.
func TerminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobStatus is one job's externally visible state. The work-split
// counters mirror sibylfs.PipelineStats and are populated when the job
// finishes; Records counts observed records and grows while the job
// runs.
type JobStatus struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Scripts int    `json:"scripts,omitempty"`
	Records int    `json:"records"`

	Jobs      int   `json:"jobs,omitempty"`
	Executed  int   `json:"executed,omitempty"`
	CacheHits int   `json:"cache_hits,omitempty"`
	Resumed   int   `json:"resumed,omitempty"`
	Rejected  int   `json:"rejected,omitempty"`
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
}

// Client talks to an sfs-serve daemon. The zero value is unusable;
// construct with NewClient.
type Client struct {
	// Base is the daemon's root URL ("http://host:port").
	Base string
	// HTTP overrides the transport. Records streams indefinitely, so
	// the default client deliberately has no overall timeout — bound
	// calls with their contexts.
	HTTP *http.Client
}

// NewClient returns a client for the daemon rooted at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: &http.Client{}}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// SubmitJob submits spec and returns the accepted job's initial status
// (its ID names the job in every other call).
func (c *Client) SubmitJob(ctx context.Context, spec JobSpec) (JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	err = c.doJSON(ctx, http.MethodPost, "/v1/jobs", body, &st)
	return st, err
}

// Job fetches one job's current status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists all jobs the daemon knows, oldest first.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel requests cooperative cancellation; the job settles into the
// "cancelled" state once its in-flight traces drain. Its journal stays
// resumable — a daemon restart does not resurrect a cancelled job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, nil)
}

// Records streams the job's records as they complete, calling fn once
// per record, and returns when the job finishes (or ctx ends). On a
// finished job it replays the finalized journal — canonical order,
// byte-identical to a local sfs-run of the same suite.
func (c *Client) Records(ctx context.Context, id string, fn func(pipeline.Record)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/records", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return readError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec pipeline.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("serveapi: bad record line: %w", err)
		}
		fn(rec)
	}
	return sc.Err()
}

// Result returns a finished job's finalized journal verbatim — the
// exact NDJSON bytes a local sfs-run -jsonl of the same suite produces.
// It fails on a job that is still queued or running.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	st, err := c.Job(ctx, id)
	if err != nil {
		return nil, err
	}
	if !TerminalState(st.State) {
		return nil, fmt.Errorf("serveapi: job %s is %s, not finished", id, st.State)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/records", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, readError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Wait polls until the job reaches a terminal state (default poll
// interval 200ms) and returns its final status.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if TerminalState(st.State) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// doJSON issues one request and decodes a JSON response into out (nil
// out discards the body).
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 300 {
		return readError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(out)
}

// readError turns a non-2xx response into an error carrying the
// server's message.
func readError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("serveapi: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
}
