package trace

import "sort"

// Per-phase rollup of a captured trace: the channel-utilization /
// collision / silence timeline the paper's round-complexity arguments are
// made of, computed purely from recorded events so it works on re-parsed
// JSONL as well as on a live Recorder.

// PhaseSummary aggregates the events of one accounting phase. Phases appear
// in first-event order; events recorded before any phase marker are grouped
// under the empty name.
type PhaseSummary struct {
	// Run is the index of the engine run the row summarizes (see
	// Recorder.StartRun); 0 for a single run.
	Run   int    `json:"run"`
	Phase string `json:"phase"`
	// FirstCycle and LastCycle bound the phase's cycle range as observed in
	// the trace (ring overwrites may clip the front of early phases).
	FirstCycle int64 `json:"first_cycle"`
	LastCycle  int64 `json:"last_cycle"`
	// Cycles is the number of distinct cycles with at least one event.
	Cycles int64 `json:"cycles"`
	// Writes / Reads / Silences / Idles count cycle operations; Silences is
	// reads that observed nothing (unwritten channel, outage or drop).
	Writes   int64 `json:"writes"`
	Reads    int64 `json:"reads"`
	Silences int64 `json:"silences"`
	Idles    int64 `json:"idles"`
	// Collisions counts model violations (two writers on one channel).
	Collisions int64 `json:"collisions"`
	// Faults counts fault-plane events (drops, corruption, outage losses,
	// crash-stops) attributed to the phase.
	Faults int64 `json:"faults"`
	// PerChannel[c] is the number of writes carried by channel c.
	PerChannel []int64 `json:"per_channel,omitempty"`
	// Utilization is Writes / (Cycles * k): the fraction of channel-cycles
	// carrying a message while the phase was active.
	Utilization float64 `json:"utilization"`
}

// Summarize rolls events (in canonical order, see Recorder.Events) up into
// per-phase summaries for a network with k channels.
func Summarize(events []Event, phases []string, k int) []PhaseSummary {
	name := func(id int32) string {
		if id >= 0 && int(id) < len(phases) {
			return phases[id]
		}
		return ""
	}
	var (
		out []PhaseSummary
		idx = map[string]int{}
		// lastCycle[i] tracks the last cycle counted for summary i so each
		// distinct cycle is counted once even though it spawns many events.
		lastCycle = map[int]int64{}
	)
	for i := range events {
		e := &events[i]
		ph := name(e.Phase)
		j, ok := idx[ph]
		if !ok {
			j = len(out)
			idx[ph] = j
			out = append(out, PhaseSummary{Phase: ph, FirstCycle: e.Cycle, LastCycle: e.Cycle})
			lastCycle[j] = e.Cycle - 1
		}
		s := &out[j]
		if e.Cycle < s.FirstCycle {
			s.FirstCycle = e.Cycle
		}
		if e.Cycle > s.LastCycle {
			s.LastCycle = e.Cycle
		}
		if lastCycle[j] != e.Cycle {
			s.Cycles++
			lastCycle[j] = e.Cycle
		}
		switch e.Kind {
		case KindWrite:
			s.Writes++
			if e.Ch >= 0 {
				if s.PerChannel == nil {
					s.PerChannel = make([]int64, k)
				}
				if int(e.Ch) < len(s.PerChannel) {
					s.PerChannel[e.Ch]++
				}
			}
		case KindRead:
			s.Reads++
		case KindSilence:
			s.Silences++
		case KindIdle:
			s.Idles++
		case KindCollision:
			s.Collisions++
		case KindFault:
			s.Faults++
		}
	}
	for i := range out {
		s := &out[i]
		if s.Cycles > 0 && k > 0 {
			s.Utilization = float64(s.Writes) / (float64(s.Cycles) * float64(k))
		}
	}
	return out
}

// Summaries rolls the recorder's retained events up per phase, separately
// for each engine run (see StartRun): each row carries its run's index, and
// its per-channel counts and utilization use that run's channel count. A
// recorder on which no run was started summarizes as one run on Channels.
func (r *Recorder) Summaries() []PhaseSummary {
	events := r.Events()
	runs := r.runs
	if len(runs) == 0 {
		runs = []run{{k: r.channels}}
	}
	var out []PhaseSummary
	lo := 0
	for i, rn := range runs {
		hi := len(events)
		if i+1 < len(runs) {
			next := runs[i+1].start
			hi = lo + sort.Search(len(events)-lo, func(j int) bool { return events[lo+j].Cycle >= next })
		}
		for _, s := range Summarize(events[lo:hi], r.phases, rn.k) {
			s.Run = i
			out = append(out, s)
		}
		lo = hi
	}
	return out
}
