package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/serveapi"
	"repro/internal/telemetry"
)

// job is one submitted suite run. Everything mutable is guarded by mu;
// cond broadcasts on every record append and state change, which is
// what the NDJSON streaming handler blocks on.
type job struct {
	id   string
	spec serveapi.JobSpec
	dir  string

	mu   sync.Mutex
	cond *sync.Cond

	state   string
	errMsg  string
	scripts int
	recs    []pipeline.Record
	stats   pipeline.Stats
	elapsed time.Duration

	// cancelled distinguishes an API cancel (terminal) from a daemon
	// shutdown (job stays queued on disk and resumes on restart).
	cancelled bool
	cancel    context.CancelFunc // non-nil while running

	// tel is the job's isolated telemetry registry (per-tenant metrics,
	// served at /v1/jobs/{id}/stats); set when the job starts running.
	tel *telemetry.Registry
}

func newJob(id string, spec serveapi.JobSpec, dir string) *job {
	j := &job{id: id, spec: spec, dir: dir, state: serveapi.StateQueued}
	j.cond = sync.NewCond(&j.mu)
	return j
}

func (j *job) journalPath() string { return filepath.Join(j.dir, "run.jsonl") }
func (j *job) specPath() string    { return filepath.Join(j.dir, "job.json") }
func (j *job) statusPath() string  { return filepath.Join(j.dir, "status.json") }

// status snapshots the externally visible state.
func (j *job) status() serveapi.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() serveapi.JobStatus {
	return serveapi.JobStatus{
		ID:        j.id,
		Name:      j.spec.Name,
		State:     j.state,
		Error:     j.errMsg,
		Scripts:   j.scripts,
		Records:   len(j.recs),
		Jobs:      j.stats.Jobs,
		Executed:  j.stats.Executed,
		CacheHits: j.stats.CacheHits,
		Rejected:  j.stats.Rejected,
		ElapsedMS: j.elapsed.Milliseconds(),
	}
}

// observe is the job's WithObserver hook: records arrive in completion
// order — cache hits included — and every append
// wakes the streaming handlers.
func (j *job) observe(rec pipeline.Record) {
	j.mu.Lock()
	j.recs = append(j.recs, rec)
	j.mu.Unlock()
	j.cond.Broadcast()
}

// setState transitions the job and persists the new status; terminal
// transitions are what a restarted daemon reads to decide what to
// resume (non-terminal states on disk mean "re-enqueue me").
func (j *job) setState(state, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	if state != serveapi.StateRunning {
		j.cancel = nil
	}
	st := j.statusLocked()
	j.mu.Unlock()
	j.persistStatus(st)
	j.cond.Broadcast()
}

// persistStatus writes the status snapshot beside the journal. A torn
// write parses as garbage, which recovery treats as non-terminal — the
// job is re-enqueued, and the shared store makes that cheap.
func (j *job) persistStatus(st serveapi.JobStatus) {
	data, err := json.Marshal(st)
	if err != nil {
		return
	}
	_ = os.WriteFile(j.statusPath(), append(data, '\n'), 0o644)
}

// requestCancel flags an API cancel and cancels the run context (a
// queued job settles immediately; a running one drains cooperatively).
func (j *job) requestCancel() {
	j.mu.Lock()
	j.cancelled = true
	cancel := j.cancel
	queued := j.state == serveapi.StateQueued
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if queued {
		j.setState(serveapi.StateCancelled, "")
	}
}

func (j *job) wasCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// terminal reports whether the job has settled.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return serveapi.TerminalState(j.state)
}
