package checker

import (
	"bytes"

	"repro/internal/osspec"
	"repro/internal/trace"
	"repro/internal/types"
)

// history is the walk of the last check a checker completed, kept for
// the next check to resume from. A generated suite's scripts share long
// fixture preludes with their neighbours, and a walk is a function of
// the labels and lines it has applied: two traces that open with the
// same steps reach, after them, the same tracked set, covered masks,
// Result counts, errors and coverage points. So CheckCtx restores the
// previous walk's snapshot at the end of the steps a trace shares with
// the previous one, and walks on from there.
//
// The snapshots are taken where the tracked set is one state, which a
// sequential trace's set is at nearly every boundary of the step loop.
// The states they hold are frozen (reduce freezes every state the set
// keeps), so the next trace's steps clone them instead of writing to
// them.
type history struct {
	// ok reports that the fields below describe a completed check under
	// the state-set cap limit. CheckCtx clears it when a check starts and
	// sets it only when one completes without error.
	ok    bool
	limit int
	// steps are the trace's first steps, up to one past the last
	// snapshot, since no later trace can resume beyond it. Their labels
	// are the checked trace's own, which a caller does not modify.
	steps []trace.Step
	// snaps are the walk's snapshots in step order, the first at the
	// initial state.
	snaps []snapshot
}

// snapshot is a walk after its first at steps, where its tracked set was
// one state.
type snapshot struct {
	at int
	// alone reports that step at-1 was a call taken alone: the step loop
	// looked at step at, found no return of it there, and so did not
	// fuse the two. A trace that differs from step at on may fuse them.
	alone   bool
	state   *osspec.OsState
	covered uint64 // state's covered mask
	// res is the Result so far, its Coverage the coverage points so far.
	res Result
}

// resume returns the index of the snapshot a check of steps resumes
// from: the last one within the leading steps steps shares with the
// history, an equal label on the same Line (see sameLabel), except one
// that ended on a call taken alone where the traces part, since the next
// step decided how that call was checked. The index is -1 when there is
// no history to resume from: none was published, or it was walked under
// another state-set cap. It clears the history's ok flag: the check it
// starts publishes it again if it completes.
func (h *history) resume(steps []trace.Step, limit int) int {
	ok := h.ok && h.limit == limit
	h.ok = false
	if !ok {
		return -1
	}
	shared, n := 0, min(len(steps), len(h.steps))
	for shared < n && steps[shared].Line == h.steps[shared].Line &&
		sameLabel(steps[shared].Label, h.steps[shared].Label) {
		shared++
	}
	from := len(h.snaps) - 1
	for ; from >= 0; from-- {
		if s := &h.snaps[from]; s.at < shared || (s.at == shared && !s.alone) {
			break
		}
	}
	return from
}

// publish completes the history of the check of steps that has just
// ended, whose snapshots are in place, and marks it ok for state-set cap
// limit.
func (h *history) publish(steps []trace.Step, limit int) {
	reach := min(len(steps), h.snaps[len(h.snaps)-1].at+1)
	h.steps = append(h.steps[:0], steps[:reach]...)
	h.ok, h.limit = true, limit
}

// sameLabel reports whether the label a and the history's label b are
// the same observation, which the model's walk cannot tell apart. It
// compares them field by field, return values by RetValue.Equal, as the
// model matches them; a label's rendering is no substitute, since it
// omits fields the model compares (a stat return's st_ino).
func sameLabel(a, b types.Label) bool {
	switch a := a.(type) {
	case types.CallLabel:
		b, ok := b.(types.CallLabel)
		return ok && a.Pid == b.Pid && sameCommand(a.Cmd, b.Cmd)
	case types.ReturnLabel:
		b, ok := b.(types.ReturnLabel)
		// b was walked by a completed check, so it has a value.
		return ok && a.Pid == b.Pid && b.Ret.Equal(a.Ret)
	default:
		// The process events hold no slices, so == compares them.
		return a == b
	}
}

// sameCommand reports whether two commands are the same call. Write and
// Pwrite are the commands that hold a slice; == compares the others.
func sameCommand(a, b types.Command) bool {
	switch a := a.(type) {
	case types.Write:
		b, ok := b.(types.Write)
		return ok && a.FD == b.FD && a.Size == b.Size && bytes.Equal(a.Data, b.Data)
	case types.Pwrite:
		b, ok := b.(types.Pwrite)
		return ok && a.FD == b.FD && a.Size == b.Size && a.Off == b.Off && bytes.Equal(a.Data, b.Data)
	default:
		return a == b
	}
}
