package fuzz

import (
	"fmt"
	"math/rand"

	"repro/internal/testgen"
	"repro/internal/trace"
	"repro/internal/types"
)

// mutator derives candidate scripts from corpus entries by script-level
// edits: step insertion/deletion/swap/duplication, tail truncation,
// splicing with another entry, and argument mutation drawing on the
// testgen name/flag/perm universes. Every product is well-formed with
// respect to the process lifecycle (calls only from live pids), so a
// rejected candidate always reflects a real spec deviation rather than a
// malformed-script artifact.
type mutator struct {
	r        *rand.Rand
	maxSteps int
	// crash enables the durability operators (a Spec.Crash session): inserting
	// fsync/sync barriers and inserting/moving/deleting crash labels. A
	// crash label kills every process and descriptor, so the lifecycle
	// bookkeeping below treats it as a reset to the initial process.
	crash bool
}

// mutate produces a candidate from parent, optionally splicing in donor.
// It stacks 1–3 random operators, validates the result, and falls back to
// a plain copy of the parent if every attempt comes out ill-formed (the
// caller's argument mutation of a copy is always safe).
func (m *mutator) mutate(parent, donor *trace.Script) *trace.Script {
	ops := 7
	if m.crash {
		ops = 10 // widen the draw with the durability operators
	}
	for attempt := 0; attempt < 4; attempt++ {
		cand := copyScript(parent)
		for n := 1 + m.r.Intn(3); n > 0; n-- {
			switch m.r.Intn(ops) {
			case 0:
				m.insertCall(cand)
			case 1:
				m.deleteStep(cand)
			case 2:
				m.swapSteps(cand)
			case 3:
				m.dupStep(cand)
			case 4:
				m.truncateTail(cand)
			case 5:
				if donor != nil {
					cand = m.splice(cand, donor)
				} else {
					m.insertCall(cand)
				}
			case 6:
				m.mutateArgs(cand)
			case 7:
				m.insertBarrier(cand)
			case 8:
				m.insertCrash(cand)
			default:
				m.tweakCrash(cand)
			}
		}
		m.clamp(cand)
		if len(cand.Steps) > 0 && validLifecycle(cand) {
			return cand
		}
	}
	cand := copyScript(parent)
	m.mutateArgs(cand)
	return cand
}

// fresh generates a from-scratch random script (corpus bootstrap and the
// scheduler's exploration slice), reproducible from (seed, index).
func (m *mutator) fresh(seed int64, index int) *trace.Script {
	calls := 5 + m.r.Intn(20)
	if calls > m.maxSteps {
		calls = m.maxSteps
	}
	return testgen.RandomScript(seed, index, calls)
}

func copyScript(s *trace.Script) *trace.Script {
	out := &trace.Script{Name: s.Name}
	out.Steps = append(out.Steps, s.Steps...)
	return out
}

// cmdGen builds a command generator primed with the descriptors the script
// plausibly has live, so inserted calls mostly target real handles.
func (m *mutator) cmdGen(s *trace.Script) *testgen.CmdGen {
	g := testgen.NewCmdGen(m.r)
	var fds []types.FD
	var dhs []types.DH
	nextFD, nextDH := types.FD(3), types.DH(1)
	for _, st := range s.Steps {
		switch l := st.Label.(type) {
		case types.CallLabel:
			switch l.Cmd.(type) {
			case types.Open:
				fds = append(fds, nextFD)
				nextFD++
			case types.Opendir:
				dhs = append(dhs, nextDH)
				nextDH++
			}
		case types.CrashLabel:
			// The power cycle closes every handle; the remounted initial
			// process allocates from scratch.
			fds, dhs = nil, nil
			nextFD, nextDH = 3, 1
		}
	}
	g.SeedHandles(fds, dhs)
	return g
}

// livePidAt picks a pid that is alive at step position pos (process 1 is
// implicitly created by the harness).
func livePidAt(s *trace.Script, pos int, r *rand.Rand) types.Pid {
	live := map[types.Pid]bool{1: true}
	for i := 0; i < pos && i < len(s.Steps); i++ {
		switch l := s.Steps[i].Label.(type) {
		case types.CreateLabel:
			live[l.Pid] = true
		case types.DestroyLabel:
			delete(live, l.Pid)
		case types.CrashLabel:
			live = map[types.Pid]bool{1: true}
		}
	}
	pids := make([]types.Pid, 0, len(live))
	for p := range live {
		pids = append(pids, p)
	}
	if len(pids) == 0 {
		return 1
	}
	// Deterministic order before the random draw (map iteration is not).
	for i := 1; i < len(pids); i++ {
		for j := i; j > 0 && pids[j] < pids[j-1]; j-- {
			pids[j], pids[j-1] = pids[j-1], pids[j]
		}
	}
	return pids[r.Intn(len(pids))]
}

func (m *mutator) insertCall(s *trace.Script) {
	pos := m.r.Intn(len(s.Steps) + 1)
	pid := livePidAt(s, pos, m.r)
	cmd := m.randomCommand(s)
	st := trace.Step{Label: types.CallLabel{Pid: pid, Cmd: cmd}}
	s.Steps = append(s.Steps[:pos], append([]trace.Step{st}, s.Steps[pos:]...)...)
}

// insertBarrier inserts a durability barrier — fsync on a plausibly-live
// descriptor, or sync — moving the durable image so a later crash label
// partitions the script's effects.
func (m *mutator) insertBarrier(s *trace.Script) {
	pos := m.r.Intn(len(s.Steps) + 1)
	pid := livePidAt(s, pos, m.r)
	var cmd types.Command
	if m.r.Intn(3) == 0 {
		cmd = types.Sync{}
	} else {
		cmd = types.Fsync{FD: m.cmdGen(s).FD()}
	}
	st := trace.Step{Label: types.CallLabel{Pid: pid, Cmd: cmd}}
	s.Steps = append(s.Steps[:pos], append([]trace.Step{st}, s.Steps[pos:]...)...)
}

// insertCrash drops a power cycle into the script. Small Keep values bias
// towards losing recent effects — the interesting durability frontier.
func (m *mutator) insertCrash(s *trace.Script) {
	pos := m.r.Intn(len(s.Steps) + 1)
	st := trace.Step{Label: types.CrashLabel{Keep: m.r.Intn(4)}}
	s.Steps = append(s.Steps[:pos], append([]trace.Step{st}, s.Steps[pos:]...)...)
}

// tweakCrash moves, deletes, or re-draws the Keep of an existing crash
// label; with none present it inserts one instead.
func (m *mutator) tweakCrash(s *trace.Script) {
	var crashes []int
	for i, st := range s.Steps {
		if _, ok := st.Label.(types.CrashLabel); ok {
			crashes = append(crashes, i)
		}
	}
	if len(crashes) == 0 {
		m.insertCrash(s)
		return
	}
	i := crashes[m.r.Intn(len(crashes))]
	switch m.r.Intn(3) {
	case 0: // delete
		s.Steps = append(s.Steps[:i], s.Steps[i+1:]...)
	case 1: // move
		st := s.Steps[i]
		s.Steps = append(s.Steps[:i], s.Steps[i+1:]...)
		pos := m.r.Intn(len(s.Steps) + 1)
		s.Steps = append(s.Steps[:pos], append([]trace.Step{st}, s.Steps[pos:]...)...)
	default: // re-draw Keep
		s.Steps[i].Label = types.CrashLabel{Keep: m.r.Intn(4)}
	}
}

// randomCommand draws an inserted call: usually from the shared testgen
// universe, sometimes one of the fuzz-only extensions (pread/pwrite with
// boundary offsets, umask) that the random generator does not emit — the
// §7.3.4 pwrite defects are only reachable through these.
func (m *mutator) randomCommand(s *trace.Script) types.Command {
	g := m.cmdGen(s)
	switch m.r.Intn(10) {
	case 0:
		data := g.Data()
		return types.Pwrite{FD: g.FD(), Data: data, Size: int64(len(data)),
			Off: int64(m.r.Intn(12) - 4)}
	case 1:
		return types.Pread{FD: g.FD(), Size: int64(m.r.Intn(20)),
			Off: int64(m.r.Intn(12) - 4)}
	case 2:
		return types.Umask{Mask: g.Perm()}
	default:
		return g.Command()
	}
}

func (m *mutator) deleteStep(s *trace.Script) {
	if len(s.Steps) < 2 {
		return
	}
	i := m.r.Intn(len(s.Steps))
	s.Steps = append(s.Steps[:i], s.Steps[i+1:]...)
}

func (m *mutator) swapSteps(s *trace.Script) {
	if len(s.Steps) < 2 {
		return
	}
	i, j := m.r.Intn(len(s.Steps)), m.r.Intn(len(s.Steps))
	s.Steps[i], s.Steps[j] = s.Steps[j], s.Steps[i]
}

func (m *mutator) dupStep(s *trace.Script) {
	if len(s.Steps) == 0 {
		return
	}
	i := m.r.Intn(len(s.Steps))
	st := s.Steps[i]
	s.Steps = append(s.Steps[:i], append([]trace.Step{st}, s.Steps[i:]...)...)
}

func (m *mutator) truncateTail(s *trace.Script) {
	if len(s.Steps) < 2 {
		return
	}
	s.Steps = s.Steps[:1+m.r.Intn(len(s.Steps)-1)]
}

// splice keeps a prefix of a and appends a suffix of b — crossover between
// corpus entries.
func (m *mutator) splice(a, b *trace.Script) *trace.Script {
	out := &trace.Script{Name: a.Name}
	out.Steps = append(out.Steps, a.Steps[:m.r.Intn(len(a.Steps)+1)]...)
	if len(b.Steps) > 0 {
		out.Steps = append(out.Steps, b.Steps[m.r.Intn(len(b.Steps)):]...)
	}
	return out
}

// mutateArgs regenerates one argument of one random call step.
func (m *mutator) mutateArgs(s *trace.Script) {
	var calls []int
	for i, st := range s.Steps {
		if _, ok := st.Label.(types.CallLabel); ok {
			calls = append(calls, i)
		}
	}
	if len(calls) == 0 {
		return
	}
	i := calls[m.r.Intn(len(calls))]
	cl := s.Steps[i].Label.(types.CallLabel)
	g := m.cmdGen(s)
	cl.Cmd = mutateCommand(m.r, g, cl.Cmd)
	s.Steps[i].Label = cl
}

// mutateCommand rewrites one field of cmd with a fresh draw from the
// testgen universes, preserving the command kind.
func mutateCommand(r *rand.Rand, g *testgen.CmdGen, cmd types.Command) types.Command {
	switch c := cmd.(type) {
	case types.Mkdir:
		if r.Intn(2) == 0 {
			c.Path = g.Path()
		} else {
			c.Perm = g.Perm()
		}
		return c
	case types.Rmdir:
		c.Path = g.Path()
		return c
	case types.Unlink:
		c.Path = g.Path()
		return c
	case types.Link:
		if r.Intn(2) == 0 {
			c.Src = g.Path()
		} else {
			c.Dst = g.Path()
		}
		return c
	case types.Rename:
		if r.Intn(2) == 0 {
			c.Src = g.Path()
		} else {
			c.Dst = g.Path()
		}
		return c
	case types.Symlink:
		if r.Intn(2) == 0 {
			c.Target = g.Path()
		} else {
			c.Linkpath = g.Path()
		}
		return c
	case types.Readlink:
		c.Path = g.Path()
		return c
	case types.Stat:
		c.Path = g.Path()
		return c
	case types.Lstat:
		c.Path = g.Path()
		return c
	case types.Truncate:
		if r.Intn(2) == 0 {
			c.Path = g.Path()
		} else {
			c.Len = int64(r.Intn(12) - 2)
		}
		return c
	case types.Chmod:
		if r.Intn(2) == 0 {
			c.Path = g.Path()
		} else {
			c.Perm = g.Perm()
		}
		return c
	case types.Chown:
		c.Path = g.Path()
		return c
	case types.Chdir:
		c.Path = g.Path()
		return c
	case types.Open:
		switch r.Intn(3) {
		case 0:
			c.Path = g.Path()
		case 1:
			c.Flags = g.Flags()
		default:
			c.Perm = g.Perm()
		}
		return c
	case types.Close:
		c.FD = g.FD()
		return c
	case types.Read:
		if r.Intn(2) == 0 {
			c.FD = g.FD()
		} else {
			c.Size = int64(r.Intn(20))
		}
		return c
	case types.Write:
		if r.Intn(2) == 0 {
			c.FD = g.FD()
		} else {
			c.Data = g.Data()
			c.Size = int64(len(c.Data))
		}
		return c
	case types.Pread:
		if r.Intn(2) == 0 {
			c.FD = g.FD()
		} else {
			c.Off = int64(r.Intn(12) - 4)
		}
		return c
	case types.Pwrite:
		if r.Intn(2) == 0 {
			c.FD = g.FD()
		} else {
			c.Off = int64(r.Intn(12) - 4)
		}
		return c
	case types.Lseek:
		switch r.Intn(3) {
		case 0:
			c.FD = g.FD()
		case 1:
			c.Off = int64(r.Intn(20) - 4)
		default:
			c.Whence = types.SeekWhence(r.Intn(3))
		}
		return c
	case types.Opendir:
		c.Path = g.Path()
		return c
	case types.Readdir:
		c.DH = g.DH()
		return c
	case types.Rewinddir:
		c.DH = g.DH()
		return c
	case types.Closedir:
		c.DH = g.DH()
		return c
	case types.Umask:
		c.Mask = g.Perm()
		return c
	case types.Fsync:
		c.FD = g.FD()
		return c
	default:
		return cmd
	}
}

// clamp bounds the candidate's length.
func (m *mutator) clamp(s *trace.Script) {
	if m.maxSteps > 0 && len(s.Steps) > m.maxSteps {
		s.Steps = s.Steps[:m.maxSteps]
	}
}

// validLifecycle checks process well-formedness: every call targets a live
// pid (1 is implicitly alive), create does not duplicate a live pid, and
// destroy targets a live pid. A crash label kills every process and
// remounts with a fresh initial process, so liveness resets to {1} — a
// call from a pre-crash pid after the crash is ill-formed. Mutation
// products violating this would be rejected by the model as harness
// artifacts, not file-system deviations.
func validLifecycle(s *trace.Script) bool {
	live := map[types.Pid]bool{1: true}
	for _, st := range s.Steps {
		switch l := st.Label.(type) {
		case types.CallLabel:
			if !live[l.Pid] {
				return false
			}
		case types.CreateLabel:
			if live[l.Pid] {
				return false
			}
			live[l.Pid] = true
		case types.DestroyLabel:
			if !live[l.Pid] {
				return false
			}
			delete(live, l.Pid)
		case types.CrashLabel:
			live = map[types.Pid]bool{1: true}
		case types.ReturnLabel, types.TauLabel:
			return false // scripts never carry these
		}
	}
	return true
}

// candidateName labels a mutated script by its run sequence number.
func candidateName(seq int64) string { return fmt.Sprintf("fuzz___cand_%d", seq) }
