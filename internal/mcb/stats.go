package mcb

import "fmt"

// Stats aggregates the two complexity measures of the MCB model, plus
// secondary accounting useful for experiments.
type Stats struct {
	// Cycles is the total number of synchronous cycles consumed by the
	// computation. Cycles advance globally: an idle processor still spends
	// the cycle.
	Cycles int64
	// Messages is the total number of broadcast messages (channel writes).
	Messages int64
	// PerProc[i] is the number of messages written by processor i.
	PerProc []int64
	// PerChannel[c] is the number of messages carried by channel c.
	PerChannel []int64
	// MaxAbs is the largest absolute payload field value broadcast, used to
	// validate the O(log beta) message-size assumption.
	MaxAbs int64
	// MaxAux is the largest auxiliary-memory watermark (in words) reported
	// by any processor via Proc.AccountAux. Zero if never reported.
	MaxAux int64
	// Phases is the per-phase breakdown of Cycles and Messages, recorded by
	// the engine from Proc.Phase markers. Empty if no program ever marked a
	// phase. Segments sharing a name are merged into one entry; entries keep
	// first-seen order.
	Phases []PhaseStats
	// Faults counts the injected faults (zero value when the run had no
	// FaultPlan). Like every other counter, it reflects fully resolved
	// cycles only.
	Faults FaultStats
}

// PhaseStats is the accounting of one named phase of a run: every cycle and
// message between this phase's marker and the next one is attributed here.
// Repeated segments with the same name (e.g. a sort invoked twice) merge
// into a single entry.
type PhaseStats struct {
	Name     string `json:"name"`
	Cycles   int64  `json:"cycles"`
	Messages int64  `json:"messages"`
	// PerChannel[c] is the number of messages carried by channel c during
	// this phase. Nil if the phase broadcast nothing.
	PerChannel []int64 `json:"per_channel,omitempty"`
	// Utilization is Messages / (Cycles * k): the fraction of channel-cycles
	// carrying a message while this phase was active.
	Utilization float64 `json:"utilization"`
}

func (p *PhaseStats) clone() PhaseStats {
	c := *p
	c.PerChannel = append([]int64(nil), p.PerChannel...)
	return c
}

// merge folds t into p (summing counters) and recomputes Utilization from
// the merged totals, inferring k from the channel vector.
func (p *PhaseStats) merge(t *PhaseStats) {
	p.Cycles += t.Cycles
	p.Messages += t.Messages
	p.PerChannel = addVec(p.PerChannel, t.PerChannel)
	p.Utilization = 0
	if k := len(p.PerChannel); k > 0 && p.Cycles > 0 {
		p.Utilization = float64(p.Messages) / (float64(p.Cycles) * float64(k))
	}
}

// PhaseByName returns the phase entry with the given name, or nil.
func (s *Stats) PhaseByName(name string) *PhaseStats {
	for i := range s.Phases {
		if s.Phases[i].Name == name {
			return &s.Phases[i]
		}
	}
	return nil
}

func (s *Stats) String() string {
	return fmt.Sprintf("cycles=%d messages=%d maxabs=%d", s.Cycles, s.Messages, s.MaxAbs)
}

// Add accumulates t into s, summing counters and taking maxima of the
// watermarks. It is used to combine stats from consecutive runs that model
// phases of one computation.
func (s *Stats) Add(t *Stats) {
	s.Cycles += t.Cycles
	s.Messages += t.Messages
	if t.MaxAbs > s.MaxAbs {
		s.MaxAbs = t.MaxAbs
	}
	if t.MaxAux > s.MaxAux {
		s.MaxAux = t.MaxAux
	}
	s.PerProc = addVec(s.PerProc, t.PerProc)
	s.PerChannel = addVec(s.PerChannel, t.PerChannel)
	s.Faults.add(&t.Faults)
	for i := range t.Phases {
		tp := &t.Phases[i]
		if sp := s.PhaseByName(tp.Name); sp != nil {
			sp.merge(tp)
		} else {
			s.Phases = append(s.Phases, tp.clone())
		}
	}
}

func addVec(a, b []int64) []int64 {
	if len(b) > len(a) {
		a = append(a, make([]int64, len(b)-len(a))...)
	}
	for i, v := range b {
		a[i] += v
	}
	return a
}
