package mcb

import (
	"fmt"

	"mcbnet/internal/trace"
)

// ValidateTrace audits the events a trace.Recorder captured from one
// fault-free run against the MCB model's rules for a network with p
// processors and k channels:
//
//   - no two writes on the same channel in one cycle (collision-freedom —
//     the engine enforces this during the run, so a violation here means the
//     run failed or the trace itself is corrupt);
//   - every processor writes at most once and reads at most once per cycle;
//   - channel and processor indices are in range;
//   - a read reports ok exactly when its channel was written that cycle,
//     and then carries the written message's recorded word (Event.Arg).
//
// It exists so tests and tools can audit full runs end to end, independent
// of the engine's own checks. The recorder may hold several runs (they
// occupy consecutive cycle ranges, see trace.Recorder.StartRun) but must not
// have overwritten any event.
func ValidateTrace(rec *trace.Recorder, p, k int) error {
	if rec == nil {
		return fmt.Errorf("mcb: nil recorder")
	}
	if n := rec.Dropped(); n > 0 {
		return fmt.Errorf("mcb: recorder overwrote %d events; the audit needs the whole run", n)
	}
	events := rec.Events()
	for lo := 0; lo < len(events); {
		hi := lo + 1
		for hi < len(events) && events[hi].Cycle == events[lo].Cycle {
			hi++
		}
		if err := validateCycle(events[lo:hi], p, k); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// validateCycle audits the events of one cycle. The canonical event order
// sorts by processor, so a reader can precede its channel's writer: writes
// are registered in a first pass and reads checked in a second.
func validateCycle(evs []trace.Event, p, k int) error {
	cycle := evs[0].Cycle
	written := make(map[int32]int64, k) // channel -> recorded word
	wrote := map[int32]bool{}
	read := map[int32]bool{}
	for _, e := range evs {
		if e.Proc < 0 || int(e.Proc) >= p {
			return fmt.Errorf("mcb: cycle %d: processor %d out of range", cycle, e.Proc)
		}
		switch e.Kind {
		case trace.KindCollision:
			return fmt.Errorf("mcb: cycle %d: channel %d written twice (processors %d and %d)", cycle, e.Ch, e.Arg, e.Proc)
		case trace.KindWrite:
			if e.Ch < 0 || int(e.Ch) >= k {
				return fmt.Errorf("mcb: cycle %d: write on channel %d out of range", cycle, e.Ch)
			}
			if _, dup := written[e.Ch]; dup {
				return fmt.Errorf("mcb: cycle %d: channel %d written twice", cycle, e.Ch)
			}
			if wrote[e.Proc] {
				return fmt.Errorf("mcb: cycle %d: processor %d writes twice", cycle, e.Proc)
			}
			written[e.Ch] = e.Arg
			wrote[e.Proc] = true
		}
	}
	for _, e := range evs {
		if e.Kind != trace.KindRead && e.Kind != trace.KindSilence {
			continue
		}
		if e.Ch < 0 || int(e.Ch) >= k {
			return fmt.Errorf("mcb: cycle %d: read on channel %d out of range", cycle, e.Ch)
		}
		if read[e.Proc] {
			return fmt.Errorf("mcb: cycle %d: processor %d reads twice", cycle, e.Proc)
		}
		read[e.Proc] = true
		word, wroteCh := written[e.Ch]
		if ok := e.Kind == trace.KindRead; ok != wroteCh {
			return fmt.Errorf("mcb: cycle %d: read ok=%v but channel %d written=%v", cycle, ok, e.Ch, wroteCh)
		}
		if wroteCh && e.Arg != word {
			return fmt.Errorf("mcb: cycle %d: read word %d differs from written %d", cycle, e.Arg, word)
		}
	}
	return nil
}
