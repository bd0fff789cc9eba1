package osspec

import (
	"sort"

	"repro/internal/types"
)

// ConcreteReturns enumerates representative concrete return values allowed
// by pid's pending pattern in s: the exact value for exact pendings, the
// full read/write for prefix patterns, and every currently-allowed entry
// (plus end-of-stream when legal) for readdir. Used by the determinized
// model (fsimpl.SpecFS) and by recovery.
func ConcreteReturns(s *OsState, pid types.Pid) []types.RetValue {
	p := s.procs.get(pid)
	if p == nil || p.Run != RsReturning || p.PendingRet == nil {
		return nil
	}
	switch pend := p.PendingRet.(type) {
	case PendingExact:
		return []types.RetValue{pend.Rv}
	case PendingAny:
		return []types.RetValue{types.RvNone{}}
	case PendingReadPrefix:
		return []types.RetValue{types.RvBytes{Data: pend.Data}}
	case PendingWriteUpTo:
		return []types.RetValue{types.RvNum{N: int64(len(pend.Data))}}
	case PendingReaddir:
		h := pend.handle(s)
		if h == nil {
			return []types.RetValue{types.RvDirent{End: true}}
		}
		must, _ := refreshedSets(s, h)
		var names []string
		for n := range must {
			names = append(names, n)
		}
		sort.Strings(names)
		var out []types.RetValue
		for _, n := range names {
			out = append(out, types.RvDirent{Name: n})
		}
		if len(must) == 0 {
			out = append(out, types.RvDirent{End: true})
		}
		return out
	}
	return nil
}
