package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/pipeline"
	"repro/internal/serveapi"
	"repro/internal/telemetry"
)

// buildMux wires the daemon's routes:
//
//	POST /v1/jobs                submit a suite spec, returns JobStatus
//	GET  /v1/jobs                list jobs, oldest first
//	GET  /v1/jobs/{id}           one job's status
//	GET  /v1/jobs/{id}/records   NDJSON records: live stream while the
//	                             job runs, the finalized journal once done
//	GET  /v1/jobs/{id}/stats     the job's isolated telemetry snapshot
//	POST /v1/jobs/{id}/cancel    cooperative cancellation
//	GET  /v1/healthz             liveness probe
func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.withJob(s.handleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/records", s.withJob(s.handleRecords))
	mux.HandleFunc("GET /v1/jobs/{id}/stats", s.withJob(s.handleJobStats))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.withJob(s.handleCancel))
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.mux = mux
}

// Handler returns the daemon's HTTP handler, wrapped in the request
// metrics middleware (serve.http_requests, serve.http_ns).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.tel.Counter("serve.http_requests").Inc()
		start := time.Now()
		s.mux.ServeHTTP(w, r)
		s.tel.Histogram("serve.http_ns").ObserveSince(start)
	})
}

func (s *Server) withJob(fn func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.job(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown job", http.StatusNotFound)
			return
		}
		fn(w, r, j)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// bodyReadTimeout bounds how long a submission may take to arrive, so a
// client that stalls mid-body is cut off instead of holding its
// connection. It is a deadline per request, which the server lifts
// before the connection's next one, not the server's ReadTimeout: that
// would also cut off the live records stream.
var bodyReadTimeout = time.Minute // tests shorten it

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	http.NewResponseController(w).SetReadDeadline(time.Now().Add(bodyReadTimeout))
	var spec serveapi.JobSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&spec); err != nil {
		http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]serveapi.JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.job(id); ok {
			out = append(out, j.status())
		}
	}
	writeJSON(w, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, j *job) {
	writeJSON(w, j.status())
}

func (s *Server) handleJobStats(w http.ResponseWriter, r *http.Request, j *job) {
	j.mu.Lock()
	tel := j.tel
	j.mu.Unlock()
	if tel == nil {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{}\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tel.WriteJSON(w, telemetry.Header{Tool: "sfs-serve"})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, j *job) {
	j.requestCancel()
	w.WriteHeader(http.StatusNoContent)
}

// handleRecords streams the job's records as NDJSON. A settled job
// replays its journal file — for a successful job that is the
// finalized, canonically ordered JSONL, byte-identical to a local
// sfs-run of the same suite. A live job streams records in completion
// order as they arrive (cache hits included) and ends the stream when
// the job settles.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if j.terminal() {
		data, err := os.ReadFile(j.journalPath())
		if err != nil {
			// Settled without a journal (failed or cancelled, which write
			// none): replay the records this daemon life observed.
			enc := json.NewEncoder(w)
			j.mu.Lock()
			recs := append([]pipeline.Record(nil), j.recs...)
			j.mu.Unlock()
			for _, rec := range recs {
				enc.Encode(rec)
			}
			return
		}
		w.Write(data)
		return
	}

	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// A client disconnect must unblock the cond wait below.
	go func() {
		<-r.Context().Done()
		j.cond.Broadcast()
	}()
	sent := 0
	for {
		j.mu.Lock()
		for sent >= len(j.recs) && !serveapi.TerminalState(j.state) && r.Context().Err() == nil {
			j.cond.Wait()
		}
		batch := j.recs[sent:]
		sent = len(j.recs)
		settled := serveapi.TerminalState(j.state)
		j.mu.Unlock()
		if r.Context().Err() != nil {
			return
		}
		for _, rec := range batch {
			if enc.Encode(rec) != nil {
				return
			}
		}
		if fl != nil {
			fl.Flush()
		}
		if settled {
			return
		}
	}
}
