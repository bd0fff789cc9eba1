package reduce

import "repro/internal/trace"

// Oracle reports whether a script still exhibits the behaviour being
// minimized (for spec deviations: executes the script and asks the checker).
// Callers may wrap extra policy around the check — the fuzzer's oracle
// counts each probe's model coverage in its session's registry, as it
// does for every run.
type Oracle func(*trace.Script) (bool, error)

// Minimize shrinks a script while deviates reports that it still
// exhibits the behaviour, using one-at-a-time removal passes until a
// fixed point (ddmin's granularity-1 phase, which suffices for our
// linear scripts). The result still deviates; if the input does not
// deviate it is returned unchanged.
func Minimize(s *trace.Script, deviates Oracle) (*trace.Script, error) {
	bad, err := deviates(s)
	if err != nil || !bad {
		return s, err
	}
	cur := s
	for {
		shrunk, err := removalPass(cur, deviates)
		if err != nil {
			return cur, err
		}
		if len(shrunk.Steps) == len(cur.Steps) {
			return cur, nil
		}
		cur = shrunk
	}
}

// removalPass tries dropping each step (and chunks of steps) once.
func removalPass(s *trace.Script, deviates Oracle) (*trace.Script, error) {
	// Coarse first: halves, quarters; then single steps.
	for _, chunk := range []int{len(s.Steps) / 2, len(s.Steps) / 4, 1} {
		if chunk < 1 {
			continue
		}
		i := 0
		for i < len(s.Steps) {
			end := i + chunk
			if end > len(s.Steps) {
				end = len(s.Steps)
			}
			cand := without(s, i, end)
			if len(cand.Steps) == 0 {
				i = end
				continue
			}
			bad, err := deviates(cand)
			if err != nil {
				return s, err
			}
			if bad {
				s = cand // keep the smaller script; retry same index
				continue
			}
			i = end
		}
	}
	return s, nil
}

func without(s *trace.Script, from, to int) *trace.Script {
	out := &trace.Script{Name: s.Name + "_min"}
	out.Steps = append(out.Steps, s.Steps[:from]...)
	out.Steps = append(out.Steps, s.Steps[to:]...)
	return out
}
