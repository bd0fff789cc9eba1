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
	// A fused call/return pair (Walk.StepPair) counts the τ outcomes its
	// closure would have generated.
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
	// inside the closure. A fused call/return pair counts the rounds its
	// closure would have run, and its whole time lands in TauNanos, call
	// and return included, so tau_closure_ns covers every fused pair.
	// They never influence the verdict and are not part of the
	// serialized record.
	TauRounds int
	TauNanos  int64
	// CrashPoints counts the crash labels checked in this trace (crash
	// mode only). Telemetry, like TauRounds: not part of the serialized
	// record — the record's byte format is pinned by golden fixtures.
	CrashPoints int
	// CrashStates counts the remounted states the crash labels drew: the
	// successors osspec.CrashStates built for every tracked state, each
	// source's deduplicated. Telemetry, like CrashPoints.
	CrashStates int
	// Coverage is the set of model coverage points the check hit, fused
	// pairs replayed from the cons table included, so it does not depend
	// on Memo. Like CrashPoints, not part of the serialized record.
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
	// Tel receives the checker's telemetry (counters per trace, τ-closure
	// attribution); nil records none. Purely observational: results are
	// byte-identical whatever registry is installed.
	Tel *telemetry.Registry
	// Memo, when non-nil, is the checker's cons table: fused call/return
	// pairs (see fuse) are interned per (source state object, call and
	// return) and replayed across traces (scripts share their fixture
	// prefix — and the shared initial state — so most of a sequential
	// suite's pairs walk the same interned object graph). Every other
	// step is computed afresh. A replay is CallReturn applied to that very
	// object, so results are byte-identical with the table on or off; the
	// golden parity fixtures pin it. The table keys on source-state
	// pointer identity, so it pays only where traces share a prefix of
	// states: pipeline.Run gives each worker's checker a table of its own
	// for sequential runs and leaves it nil for concurrent ones, whose
	// schedules rarely reach the same state object twice.
	Memo *ConsTable

	// initial is the hashed+frozen initial state every trace this checker
	// checks starts from, built at the first check: all traces start
	// identical, and the pointer-equality fast paths in StateEqual and the
	// cons table make the per-trace first steps cheap.
	initial *osspec.OsState

	// scratch is the storage each trace reuses (see traceScratch).
	scratch traceScratch

	// walk is the trace in progress (see Walk); it lives here so that
	// starting one allocates nothing.
	walk Walk
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
// before the union overwrites it. Interned pair successors are only ever
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
	// key holds the current pair's cons-table key (AppendPairKey).
	key []byte
	// hits collects the trace's coverage points (Result.Coverage); fan
	// collects one pair miss's, which its cons-table entry keeps.
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
// step. The whole check runs on the calling goroutine, as one Walk over
// the trace, a call followed by its return taken as one StepPair. On
// cancellation the partial Result (inspected so far,
// verdict meaningless) is returned with ctx.Err().
func (c *Checker) CheckCtx(ctx context.Context, t *trace.Trace) (Result, error) {
	start := time.Now()
	defer c.scratch.release()
	w := c.Walk(ctx, t.Name)
	steps := t.Steps
	for i := 0; i < len(steps); i++ {
		var err error
		if i+1 < len(steps) && isCallReturn(steps[i], steps[i+1]) {
			_, err = w.StepPair(steps[i], steps[i+1])
			i++
		} else {
			_, err = w.Step(steps[i])
		}
		if err != nil {
			return w.Result()
		}
	}
	res, err := w.Result()
	if err == nil {
		c.record(res, time.Since(start))
	}
	return res, err
}

// Walk is one trace's check in progress, driven a step at a time: the
// loop CheckCtx runs, open to callers that want the tracked set after
// every step, as sfs-debug does. Checker.Walk starts one, Step applies
// the trace's steps in order (StepPair a call and its return at once,
// as CheckCtx does) and Result reads the outcome. A walk works
// in its checker's scratch, so a checker runs one walk at a time:
// starting a walk abandons the checker's previous one.
type Walk struct {
	c      *Checker
	ctx    context.Context
	states []*osspec.OsState
	res    Result
}

// Walk starts checking the trace called name from the model's initial
// state. Its steps consult ctx as CheckCtx does.
func (c *Checker) Walk(ctx context.Context, name string) *Walk {
	c.walk = Walk{c: c, ctx: ctx, res: Result{Name: name, Accepted: true}}
	c.walk.states = c.scratch.start(c.initialState())
	return &c.walk
}

// Step applies one observed step to the tracked set and returns the set
// it leaves, which is valid until the checker's next Step or Walk. A
// step no tracked state allows is diagnosed in the Result's Errors, and
// the walk continues as Fig 4 does. If ctx is done before the step,
// Step applies nothing; if it is done before or during the step, Step
// returns ctx.Err(), and the set must not be used.
func (w *Walk) Step(st trace.Step) ([]*osspec.OsState, error) {
	if err := w.ctx.Err(); err != nil {
		return w.states, err
	}
	res := &w.res
	res.Steps++
	res.SumStates += len(w.states)
	res.MaxStates = max(res.MaxStates, len(w.states))
	w.states = w.c.step(w.ctx, w.states, st, res, &w.c.scratch)
	return w.states, w.ctx.Err()
}

// StepPair applies a call step and the step after it, the return of the
// same pid, as Step(call) then Step(ret) would, and returns the set they
// leave. Where Checker.fuse admits the pair it is checked as one
// transition; otherwise, and if the pair deviates, it is those two
// Steps, from the untouched set.
func (w *Walk) StepPair(call, ret trace.Step) ([]*osspec.OsState, error) {
	if err := w.ctx.Err(); err != nil {
		return w.states, err
	}
	if next, ok := w.c.fuse(w.states, call, ret, &w.res, &w.c.scratch); ok {
		w.states = next
		return next, w.ctx.Err()
	}
	if _, err := w.Step(call); err != nil {
		return w.states, err
	}
	return w.Step(ret)
}

// isCallReturn reports whether a is a call and b the return of its pid.
func isCallReturn(a, b trace.Step) bool {
	_, _, ok := callReturn(a, b)
	return ok
}

// callReturn returns a's call label and b's return label when b returns
// a's call.
func callReturn(a, b trace.Step) (types.CallLabel, types.ReturnLabel, bool) {
	call, ok := a.Label.(types.CallLabel)
	ret, isRet := b.Label.(types.ReturnLabel)
	return call, ret, ok && isRet && call.Pid == ret.Pid
}

// Result returns the outcome of the steps applied so far, the trace's
// coverage set included, and ctx.Err(): the verdict is meaningless when
// that error is non-nil. The trace is accepted iff the tracked set is
// non-empty and no step required recovery.
func (w *Walk) Result() (Result, error) {
	res := w.res
	res.Coverage = w.c.scratch.hits
	if len(w.states) == 0 {
		res.Accepted = false
	}
	return res, w.ctx.Err()
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
	tel := c.Tel
	if tel == nil {
		return
	}
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

// fuse checks a call and its return (see StepPair) as one transition,
// osspec.CallReturn, where that is exactly the two steps: the tracked set
// is one state, with no covered pids, that osspec.Fusable admits. It
// returns the next tracked set, its masks in sc.covered, and true; or
// false, leaving states and sc.covered untouched, for the stepwise path
// to take: when the pair deviates (no successor), whose diagnosis and
// recovery that path makes, or when the closure could reach MaxStateSet.
// The Result counts what the two steps would: Steps and SumStates two
// each (two steps from one state), MaxStates the closure's 1+distinct,
// the closure's expansions and its two rounds (the outcomes', then theirs,
// which have no call to process). The successors get no covered pids,
// as ReturnCovered gives a state without a calling process. With a cons
// table the pair is one entry, keyed by the source state and
// AppendPairKey, that keeps the counts. The pair's time lands in
// TauNanos. A pair that falls back has recorded coverage only the two
// steps record too.
func (c *Checker) fuse(states []*osspec.OsState, call, ret trace.Step, res *Result, sc *traceScratch) ([]*osspec.OsState, bool) {
	cl, rl, ok := callReturn(call, ret)
	if !ok || len(states) != 1 || sc.covered[0] != 0 || !osspec.Fusable(states[0], cl.Pid) {
		return nil, false
	}
	t0 := time.Now()
	s := states[0]
	var succs []*osspec.OsState
	var expansions, distinct int
	if memo := c.Memo; memo != nil {
		sc.key = AppendPairKey(sc.key[:0], cl, rl)
		succs, expansions, distinct, ok = memo.Get(s, sc.key, &sc.hits)
		if !ok {
			sc.fan = cov.Set{}
			succs, expansions, distinct = osspec.CallReturn(s, cl, rl, &sc.tau.Set, &sc.fan)
			memo.Put(s, sc.key, succs, &sc.fan, expansions, distinct) // hashes and freezes succs
			sc.hits.Or(&sc.fan)
		}
	} else {
		succs, expansions, distinct = osspec.CallReturn(s, cl, rl, &sc.tau.Set, &sc.hits)
	}
	if len(succs) == 0 || (c.MaxStateSet > 0 && 1+distinct >= c.MaxStateSet) {
		return nil, false
	}
	res.Steps += 2
	res.SumStates += 2
	res.MaxStates = max(res.MaxStates, 1+distinct)
	res.TauExpansions += expansions
	res.TauRounds += 2
	// The union overwrites the buffer states lives in; succs are not
	// there (fresh, or interned and copied).
	sc.union = append(sc.union[:0], succs...)
	sc.uncover(len(sc.union))
	next := c.reduce(sc.union, res, sc)
	res.TauNanos += int64(time.Since(t0))
	return next, true
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
// osspec.TauClosureWith), respecting the checker's set cap and
// accounting the expansions in the result's statistics. A cancelled ctx
// cuts the closure short; Walk.Step reports the cancellation and the
// trace is abandoned, so the truncated set is never used for a verdict. The output is built in the trace's closure buffer; states'
// covered masks (sc.covered) spare it the successors the previous steps
// already found. complete reports that the output holds every τ-successor
// of its states: no cap hit and no cancellation.
func (c *Checker) tauClosure(ctx context.Context, states []*osspec.OsState, res *Result, sc *traceScratch) (out []*osspec.OsState, complete bool) {
	t0 := time.Now()
	cs := &sc.stats
	*cs = osspec.ClosureStats{}
	out, n, capHit := osspec.TauClosureWith(states, osspec.ClosureOpts{
		Cap:     c.MaxStateSet,
		Cov:     &sc.hits,
		Ctx:     ctx,
		Stats:   cs,
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

// unionTrans applies one label to every tracked state, recording the
// coverage points in the trace's set. Successors are concatenated in
// source order, so every later dedup decision is deterministic, and
// pre-hashed for reduce. They are appended into the trace's union buffer,
// overwriting it; states must not live there. The successors' covered
// masks replace sc.covered: cover(i) for the successor of source i when
// cover is non-nil (call and return labels, which draw at most one
// successor per source), 0 otherwise.
func (c *Checker) unionTrans(states []*osspec.OsState, lbl types.Label, sc *traceScratch, cover func(int) uint64) []*osspec.OsState {
	sc.union, sc.fanout = sc.union[:0], sc.fanout[:0]
	for _, s := range states {
		n := len(sc.union)
		sc.union = osspec.AppendTrans(sc.union, s, lbl, &sc.hits)
		for _, ns := range sc.union[n:] {
			ns.Hash()
		}
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

// reduce dedupes the state set by hash-consed identity, records cap
// truncation, and freezes the survivors, so the next fan-out clones them
// instead of writing to them (the cons table hands them to later
// traces). It compacts states in
// place, and their covered masks (sc.covered, aligned with states on
// entry) along with them: a duplicate's mask goes with it, and a
// truncated set keeps none, since the states it dropped were what the
// masks vouched for. sc.tau.Set is reset here; its previous contents are
// done with by the time reduce runs (the closure/union results only
// reference states, never the set).
func (c *Checker) reduce(states []*osspec.OsState, res *Result, sc *traceScratch) []*osspec.OsState {
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
