package checker

import (
	"context"
	"sort"
	"strconv"
	"time"

	"repro/internal/cov"
	"repro/internal/osspec"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/types"
)

// StepError records one non-conformant step and its diagnosis (Fig 4).
type StepError struct {
	Line     int
	Observed string
	Allowed  []string
}

// Message renders the Fig 4 diagnostic block.
func (e StepError) Message() string { return string(e.AppendMessage(nil)) }

// AppendMessage appends Message's text to b and returns the extended
// slice.
func (e StepError) AppendMessage(b []byte) []byte {
	b = append(b, "# Error: "...)
	b = strconv.AppendInt(b, int64(e.Line), 10)
	b = append(append(append(b, ": "...), e.Observed...), '\n')
	b = append(append(append(b, "# unexpected results: "...), e.Observed...), '\n')
	if len(e.Allowed) == 0 {
		return append(b, "# no behaviour allowed here; resetting process state\n"...)
	}
	b = appendJoined(append(b, "# allowed are only: "...), e.Allowed)
	return appendJoined(append(b, "# continuing with "...), e.Allowed)
}

// appendJoined appends the strings joined by ", " and a newline.
func appendJoined(b []byte, ss []string) []byte {
	for i, s := range ss {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, s...)
	}
	return append(b, '\n')
}

// Result is the outcome of checking one trace.
type Result struct {
	Name        string
	Accepted    bool
	Errors      []StepError
	Steps       int
	MaxStates   int // peak size of the tracked state set (§7.1's key metric)
	UsedSpecial bool
	// TauExpansions counts the τ-successor states generated while closing
	// the state set over internal transitions. Sequential traces need one
	// expansion round per return; concurrent traces with several pending
	// calls are where the number grows — it measures how much interleaving
	// nondeterminism the oracle had to absorb. Successors a closure can
	// prove are already in its output — in its input, by the covered
	// masks carried across labels (osspec.ReturnCovered), or earlier in
	// the closure, by the sleep sets of local τ steps (see
	// osspec.ClosureOpts.Covered) — are not generated and not counted.
	TauExpansions int
	// SumStates accumulates the state-set size at every step; together with
	// Steps it yields the mean set size (see MeanStates).
	SumStates int
	// StateSetCapHit records that the tracked set reached MaxStateSet and
	// was truncated (or the τ-closure was cut short): states the real
	// system might be in were dropped, so a rejection afterwards may be a
	// false alarm and an acceptance may rest on luck. The cap exists only
	// to bound pathological blowup; a hit is worth surfacing to the user.
	StateSetCapHit bool
	// TauRounds / TauNanos are telemetry: the number of τ-closure
	// frontier-expansion rounds this trace cost and the wall time spent
	// inside the closure. They never influence the verdict and are not
	// part of the serialized record.
	TauRounds int
	TauNanos  int64
	// CrashPoints counts the crash labels checked in this trace (crash
	// mode only). Telemetry, like TauRounds: not part of the serialized
	// record — the record's byte format is pinned by golden fixtures.
	CrashPoints int
	// CrashStates counts the remounted states the crash labels drew: the
	// successors osspec.CrashStates built for every tracked state, each
	// source's deduplicated. Telemetry, like CrashPoints; it does not
	// depend on Memo.
	CrashStates int
	// Coverage is the set of model coverage points the check hit,
	// transitions replayed from the cons table included, so it does not
	// depend on Memo. Like CrashPoints, not part of the serialized record.
	Coverage cov.Set
}

// MeanStates is the mean tracked state-set size per step.
func (r Result) MeanStates() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.SumStates) / float64(r.Steps)
}

// Checker checks traces against one variant of the model. A checker and
// everything it holds (its per-trace scratch, its initial state and its
// cons table) belong to one goroutine: a caller that checks in parallel
// builds one checker per worker, as Session.Check, pipeline.Run and the
// fuzz engine do. Traces are independent, so the checkers share nothing.
type Checker struct {
	Spec types.Spec
	// MaxStateSet caps the tracked set to guard against pathological
	// blowup; the paper's engineering keeps real sets tiny. Truncation is
	// reported via Result.StateSetCapHit.
	MaxStateSet int
	// DisableDedup turns off deduplication of the state set — only for the
	// ablation benchmarks; never set it in real checking.
	DisableDedup bool
	// Tel receives the checker's telemetry (counters per trace, τ-closure
	// attribution); nil selects telemetry.Default. Purely observational:
	// results are byte-identical whatever registry is installed.
	Tel *telemetry.Registry
	// Memo, when non-nil, is the checker's cons table: transition
	// fan-outs are interned per (source state object, label) and replayed
	// across traces (scripts share their fixture prefix — and the shared
	// initial state — so most of a suite's τ-closure work walks the same
	// interned object graph). A replay is Trans applied to that very
	// object, so results are byte-identical with the table on or off;
	// the golden parity fixtures pin it. The table keys on source-state
	// pointer identity, so it pays only where traces share a prefix of
	// states: pipeline.Run gives each worker's checker a table of its own
	// for sequential runs and leaves it nil for concurrent ones, whose
	// schedules rarely reach the same state object twice. Ignored under
	// DisableDedup (the ablation's states are never hashed, which the
	// table's entries must be).
	Memo *osspec.ConsTable

	// initial is the hashed+frozen initial state every trace this checker
	// checks starts from, built at the first check: all traces start
	// identical, and the pointer-equality fast paths in StateEqual and the
	// cons table make the per-trace first steps cheap.
	initial *osspec.OsState

	// scratch is the storage each trace reuses (see traceScratch).
	scratch traceScratch
}

// traceScratch is the storage a trace reuses at every step instead of
// allocating per step, and the next trace after it: the τ-closure's
// working storage (whose dedup set reduce reuses too, reset per reduce and
// per τ-closure), two state buffers and the trace's coverage sets. Every
// field is reset before it is read, so a trace abandoned by a panic
// leaves nothing the next trace sees. The τ-closure builds
// its output in closure; the transition union reads from closure and
// appends into union, which reduce compacts in place — so between steps
// the tracked set lives in union, and the next closure copies it out
// before the union overwrites it. Interned memo slices are only ever
// copied into these buffers.
type traceScratch struct {
	tau     osspec.ClosureScratch
	closure []*osspec.OsState
	union   []*osspec.OsState
	// covered holds the tracked set's covered masks, covered[i] for
	// union[i] (see osspec.ClosureOpts.Covered); reduce compacts it along
	// with the states.
	covered []uint64
	// fanout[i] is how many successors the last union drew from its i-th
	// source, which is how covered masks find their successors.
	fanout []int
	// stats receives each closure's work split; a local would escape
	// through ClosureOpts, which the closure's output flows from.
	stats osspec.ClosureStats
	// key holds the current label's cons-table key (osspec.AppendLabelKey),
	// rendered once per step.
	key []byte
	// hits collects the trace's coverage points (Result.Coverage); fan
	// collects one memo miss's, which its cons-table entry keeps.
	hits, fan cov.Set
}

// start makes the tracked set the single initial state, with no covered
// pids and no coverage, and returns it.
func (sc *traceScratch) start(initial *osspec.OsState) []*osspec.OsState {
	sc.union = append(sc.union[:0], initial)
	sc.covered = append(sc.covered[:0], 0)
	sc.hits = cov.Set{}
	return sc.union
}

// uncover gives each of n successors an empty covered mask.
func (sc *traceScratch) uncover(n int) {
	sc.covered = append(sc.covered[:0], make([]uint64, n)...)
}

// release drops the trace's state references, its buffers' spare
// capacity included, so the scratch pins no states between traces: kept,
// they made every collection mark a peak trace's states again (about a
// third more GC CPU checking concurrent traces).
func (sc *traceScratch) release() {
	sc.tau.Set.Reset()
	clear(sc.closure[:cap(sc.closure)])
	clear(sc.union[:cap(sc.union)])
}

// New returns a checker for the given spec variant.
func New(spec types.Spec) *Checker {
	return &Checker{Spec: spec, MaxStateSet: 4096}
}

// memo returns the cons table to use, nil when memoisation is off. The
// DisableDedup ablation skips pre-hashing, which the table's entries
// need; it never memoises.
func (c *Checker) memo() *osspec.ConsTable {
	if c.DisableDedup {
		return nil
	}
	return c.Memo
}

// initialState returns the model's initial state, built at the
// checker's first check and kept hashed+frozen so every later trace
// starts from the very same object.
func (c *Checker) initialState() *osspec.OsState {
	if c.initial == nil {
		c.initial = osspec.NewOsState(c.Spec)
		c.initial.Hash()
		c.initial.Freeze()
	}
	return c.initial
}

// Check runs the oracle over a trace: S_{i+1} = ∪_{s∈S_i} os_trans(s, lbl_i),
// with deduplication by hash-consed state identity. The trace is accepted
// iff the final set is non-empty and no step required recovery.
func (c *Checker) Check(t *trace.Trace) Result {
	res, _ := c.CheckCtx(context.Background(), t)
	return res
}

// CheckCtx is Check with cooperative cancellation: ctx is consulted
// between trace steps and between τ-closure expansion rounds inside each
// step. The whole check runs on the calling goroutine. On cancellation
// the partial Result (inspected so far, verdict meaningless) is returned
// with ctx.Err().
func (c *Checker) CheckCtx(ctx context.Context, t *trace.Trace) (Result, error) {
	start := time.Now()
	res := Result{Name: t.Name, Accepted: true}
	sc := &c.scratch
	defer sc.release()
	states := sc.start(c.initialState())

	for _, st := range t.Steps {
		if err := ctx.Err(); err != nil {
			res.Coverage = sc.hits
			return res, err
		}
		res.Steps++
		res.SumStates += len(states)
		if len(states) > res.MaxStates {
			res.MaxStates = len(states)
		}
		states = c.step(ctx, states, st, &res, sc)
	}
	res.Coverage = sc.hits
	if len(states) == 0 {
		res.Accepted = false
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	c.record(res, time.Since(start))
	return res, nil
}

// step applies one observed label to the tracked set states (which lives
// in sc.union, with its covered masks in sc.covered) and returns the next
// tracked set, leaving its masks in sc.covered.
func (c *Checker) step(ctx context.Context, states []*osspec.OsState, st trace.Step, res *Result, sc *traceScratch) []*osspec.OsState {
	switch lbl := st.Label.(type) {
	case types.ReturnLabel:
		return c.stepReturn(ctx, states, lbl, st, res, sc)
	default:
		var src []*osspec.OsState
		var cover func(int) uint64
		_, isDestroy := st.Label.(types.DestroyLabel)
		_, isCrash := st.Label.(types.CrashLabel)
		if isDestroy || isCrash {
			// Close over τ before a destroy so interleavings where a
			// pending call was processed before the process vanished
			// stay represented. Today the model's destroy effects are
			// invisible to other processes (no capacity accounting),
			// so this only pre-computes work the next return's closure
			// would do — but it keeps the oracle sound if destroy ever
			// gains observable effects. Sequential traces have no
			// pending calls here, so it is a no-op for them.
			//
			// Before a crash the closure is load-bearing: a call in
			// flight at power-loss may or may not have had its effect
			// land, so both the pre-τ and post-τ states (with their
			// different pending-effect logs) must contribute crash
			// candidates.
			src, _ = c.tauClosure(ctx, states, res, sc)
			if len(src) > res.MaxStates {
				res.MaxStates = len(src)
			}
		} else {
			// The union overwrites the buffer states lives in.
			src = append(sc.closure[:0], states...)
			sc.closure = src
			if _, isCall := st.Label.(types.CallLabel); isCall {
				// τ_q commutes with another process's call, so the
				// successor keeps its source's mask (src is states,
				// in order).
				covered := sc.covered
				cover = func(i int) uint64 { return covered[i] }
			}
		}
		next := c.unionTrans(src, st.Label, sc, cover)
		if isCrash {
			res.CrashPoints++
			res.CrashStates += len(next)
		}
		if len(next) == 0 {
			res.Accepted = false
			res.Errors = append(res.Errors, StepError{
				Line:     st.Line,
				Observed: st.Label.String(),
				Allowed:  nil,
			})
			// Recovery: drop the label entirely. The union drew
			// nothing, so states are intact; their masks are not kept.
			sc.uncover(len(states))
			return states
		}
		return c.reduce(next, res, sc)
	}
}

// record attributes one completed trace's work to the checker's registry.
// One batch of counter adds per trace — never per step — so the oracle's
// hot loop stays unmetered.
func (c *Checker) record(res Result, elapsed time.Duration) {
	tel := telemetry.Or(c.Tel)
	tel.Counter("checker.traces").Inc()
	tel.Counter("checker.steps").Add(int64(res.Steps))
	tel.Counter("checker.states_explored").Add(int64(res.SumStates))
	tel.Counter("checker.tau_expansions").Add(int64(res.TauExpansions))
	tel.Counter("checker.tau_rounds").Add(int64(res.TauRounds))
	if res.CrashPoints > 0 {
		tel.Counter("checker.crash_points").Add(int64(res.CrashPoints))
		tel.Counter("checker.crash_states").Add(int64(res.CrashStates))
	}
	if !res.Accepted {
		tel.Counter("checker.rejected").Inc()
	}
	if res.StateSetCapHit {
		tel.Counter("checker.cap_hits").Inc()
	}
	tel.Gauge("checker.max_states").SetMax(int64(res.MaxStates))
	tel.Histogram("checker.check_ns").Observe(int64(elapsed))
	tel.Histogram("checker.tau_closure_ns").Observe(res.TauNanos)
}

// stepReturn matches an observed return value. The state set is first
// closed over τ steps — every interleaving in which the pending calls of
// any processes were processed internally before this return was observed
// is a legal linearisation. For sequential traces at most one process is
// mid-call and the closure is a single expansion round; for concurrent
// traces this closure is where the §3 state-set strategy does its real
// work, and where MaxStates peaks.
func (c *Checker) stepReturn(ctx context.Context, states []*osspec.OsState, lbl types.ReturnLabel, st trace.Step, res *Result, sc *traceScratch) []*osspec.OsState {
	expanded, complete := c.tauClosure(ctx, states, res, sc)
	if len(expanded) > res.MaxStates {
		res.MaxStates = len(expanded)
	}

	// A return commutes with the τ steps of the calling processes only
	// when the closure it follows holds all of their successors.
	var cover func(int) uint64
	if complete {
		cover = func(i int) uint64 { return osspec.ReturnCovered(expanded[i], lbl.Pid) }
	}
	// st.Label holds lbl already boxed; passing lbl would box it again.
	next := c.unionTrans(expanded, st.Label, sc, cover)
	if len(next) > 0 {
		return c.reduce(next, res, sc)
	}

	// Non-conformant: diagnose and continue with the allowed values (Fig 4).
	allowed := allowedSet(expanded, lbl.Pid)
	res.Accepted = false
	res.Errors = append(res.Errors, StepError{
		Line:     st.Line,
		Observed: lbl.Ret.String(),
		Allowed:  allowed,
	})
	var recovered []*osspec.OsState
	for _, s := range expanded {
		recovered = append(recovered, osspec.RecoverReturns(s, lbl.Pid, &sc.hits)...)
	}
	if len(recovered) == 0 {
		for _, s := range expanded {
			recovered = append(recovered, osspec.ResetToRunning(s, lbl.Pid))
		}
	}
	sc.uncover(len(recovered))
	return c.reduce(recovered, res, sc)
}

// tauClosure closes the state set over internal transitions (see
// osspec.TauClosureWith), respecting the checker's dedup ablation and set
// cap and accounting the expansions in the result's statistics. A
// cancelled ctx cuts the closure short; CheckCtx notices at the next step
// boundary and abandons the trace, so the truncated set is never used for
// a verdict. The output is built in the trace's closure buffer; states'
// covered masks (sc.covered) spare it the successors the previous steps
// already found. complete reports that the output holds every τ-successor
// of its states: no cap hit and no cancellation.
func (c *Checker) tauClosure(ctx context.Context, states []*osspec.OsState, res *Result, sc *traceScratch) (out []*osspec.OsState, complete bool) {
	t0 := time.Now()
	cs := &sc.stats
	*cs = osspec.ClosureStats{}
	out, n, capHit := osspec.TauClosureWith(states, osspec.ClosureOpts{
		Dedup:   !c.DisableDedup,
		Cap:     c.MaxStateSet,
		Cov:     &sc.hits,
		Ctx:     ctx,
		Stats:   cs,
		Memo:    c.memo(),
		Scratch: &sc.tau,
		Buf:     sc.closure,
		Covered: sc.covered,
	})
	sc.closure = out
	res.TauExpansions += n
	res.TauRounds += cs.Rounds
	res.TauNanos += int64(time.Since(t0))
	if capHit {
		res.StateSetCapHit = true
	}
	return out, !capHit && ctx.Err() == nil
}

// unionTrans applies one label to every tracked state, in a loop that
// allocates nothing per step on a memo hit. Successors are concatenated
// in source order, so every later dedup decision is deterministic. With
// a cons table the per-state fan-out is interned suite-wide and replayed
// for equal (state, label) pairs. The successors are appended into the
// trace's union buffer, overwriting it; states must not live there. The
// successors' covered masks replace sc.covered: cover(i) for the
// successor of source i when cover is non-nil (call and return labels,
// which draw at most one successor per source), 0 otherwise.
func (c *Checker) unionTrans(states []*osspec.OsState, lbl types.Label, sc *traceScratch, cover func(int) uint64) []*osspec.OsState {
	memo := c.memo()
	if memo != nil {
		sc.key = osspec.AppendLabelKey(sc.key[:0], lbl)
	}
	sc.union, sc.fanout = sc.union[:0], sc.fanout[:0]
	for _, s := range states {
		n := len(sc.union)
		sc.union = c.trans(sc.union, s, lbl, memo, sc)
		sc.fanout = append(sc.fanout, len(sc.union)-n)
	}
	if cover == nil {
		sc.uncover(len(sc.union))
		return sc.union
	}
	// Successor j of source i has j ≤ i, so this may overwrite the masks
	// cover reads (a call label's cover reads sc.covered itself): slot i
	// is read before slot j is written, and never again after.
	masks := sc.covered[:0]
	for i, n := range sc.fanout {
		if n == 1 {
			masks = append(masks, cover(i))
		}
	}
	sc.covered = masks
	return sc.union
}

// trans appends s's successors under lbl to dst, and their coverage
// points to the trace's set: with a cons table the interned fan-out (sc.key
// is lbl's cons key), otherwise fresh successors, pre-hashed unless dedup
// is off.
func (c *Checker) trans(dst []*osspec.OsState, s *osspec.OsState, lbl types.Label, memo *osspec.ConsTable, sc *traceScratch) []*osspec.OsState {
	if memo != nil {
		succs, ok := memo.Get(s, sc.key, &sc.hits)
		if !ok {
			sc.fan = cov.Set{}
			succs = osspec.Trans(s, lbl, &sc.fan)
			memo.Put(s, sc.key, succs, &sc.fan) // hashes and freezes succs
			sc.hits.Or(&sc.fan)
		}
		return append(dst, succs...)
	}
	n := len(dst)
	dst = osspec.AppendTrans(dst, s, lbl, &sc.hits)
	if !c.DisableDedup {
		for _, ns := range dst[n:] {
			ns.Hash()
		}
	}
	return dst
}

func allowedSet(states []*osspec.OsState, pid types.Pid) []string {
	seen := make(map[string]bool)
	for _, s := range states {
		if d, ok := osspec.AllowedReturn(s, pid); ok {
			seen[d] = true
		}
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// reduce dedupes the state set by hash-consed identity (or only caps it,
// for the ablation benchmark), records cap truncation, and freezes the
// survivors, so the next fan-out clones them instead of writing to them
// (the cons table hands them to later traces). It compacts states in
// place, and their covered masks (sc.covered, aligned with states on
// entry) along with them: a duplicate's mask goes with it, and a
// truncated set keeps none, since the states it dropped were what the
// masks vouched for. sc.tau.Set is reset here; its previous contents are
// done with by the time reduce runs (the closure/union results only
// reference states, never the set).
func (c *Checker) reduce(states []*osspec.OsState, res *Result, sc *traceScratch) []*osspec.OsState {
	if c.DisableDedup {
		if c.MaxStateSet > 0 && len(states) > c.MaxStateSet {
			states = states[:c.MaxStateSet]
			res.StateSetCapHit = true
			sc.uncover(len(states))
		}
		for _, s := range states {
			s.Freeze()
		}
		return states
	}
	set := &sc.tau.Set
	set.Reset()
	out, covered := states[:0], sc.covered[:0]
	for i, s := range states {
		if !set.Add(s) {
			continue
		}
		s.Freeze()
		out = append(out, s)
		covered = append(covered, sc.covered[i])
		if c.MaxStateSet > 0 && len(out) >= c.MaxStateSet {
			// Only report a truncation if some remaining state is genuinely
			// distinct: a tail of duplicates would have been merged anyway,
			// and a false "best-effort verdict" warning sends the user
			// chasing a larger cap for nothing.
			for _, rest := range states[i+1:] {
				if set.Add(rest) {
					res.StateSetCapHit = true
					clear(covered)
					break
				}
			}
			break
		}
	}
	sc.covered = covered
	return out
}
