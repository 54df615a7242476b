package mcb

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
)

// Proc is the handle a processor program uses to interact with the network.
// Exactly one of WriteRead, Write, Read or Idle must be called per cycle as
// long as any other processor is still running; returning from the program
// leaves the lock-step protocol.
//
// A Proc is confined to its program goroutine and must not be shared.
type Proc struct {
	id int
	e  *engine

	auxWords int64    // current auxiliary-memory estimate (words), see AccountAux
	steps    int64    // cycles this processor has participated in
	mirOps   uint64   // ops issued, mirrored into engine.procMirror for the watchdog
	pending  []string // phase markers to attach to the next cycle op, see Phase
}

// Cycles returns the number of cycles this processor has participated in so
// far. While every processor is live, this equals the global cycle count, so
// algorithms use it to record phase boundaries.
func (p *Proc) Cycles() int64 { return p.steps }

// ID returns the processor index in [0, P).
func (p *Proc) ID() int { return p.id }

// P returns the number of processors in the network.
func (p *Proc) P() int { return p.e.cfg.P }

// K returns the number of broadcast channels.
func (p *Proc) K() int { return p.e.cfg.K }

// Phase marks the start of a named accounting phase. The marker rides on
// this processor's next cycle operation; from the cycle that operation
// belongs to onward, the engine attributes cycles and messages to the named
// phase (Stats.Phases) until another marker takes over. Marking costs no
// cycles and no messages. Any processor may mark; in a lock-step algorithm
// all processors reach a boundary in the same cycle, so markers from
// different processors carrying the same name coalesce. Repeating the
// current phase's name is a no-op; segments sharing a name merge into one
// Stats entry.
func (p *Proc) Phase(name string) {
	p.pending = append(p.pending, name)
	if p.e.cfg.ProfileLabels {
		p.setProfileLabels(name)
	}
}

// setProfileLabels tags this processor's goroutine with pprof labels so CPU
// profiles attribute samples (local computation, barrier spinning) to the
// processor and its current algorithm phase. Only called when
// Config.ProfileLabels is set; phase marking is cold, so the per-call
// allocations are acceptable.
func (p *Proc) setProfileLabels(phase string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("mcb_proc", strconv.Itoa(p.id), "mcb_phase", phase)))
}

// fillSlot writes this processor's submission for the next cycle directly
// into its (cache-line padded, single-writer) engine slot, updates the
// watchdog mirror, and hands any queued phase markers to the engine's cold
// side table. Writing in place keeps the hot path free of cycleOp copies.
func (p *Proc) fillSlot(kind opKind, writeCh, readCh int32, msg Message) {
	p.mirOps++
	p.e.procMirror[p.id].v.Store(p.mirOps<<3 | uint64(kind))
	slot := &p.e.slots[p.id].op
	slot.kind = kind
	slot.writeCh = writeCh
	slot.readCh = readCh
	slot.msg = msg
	if len(p.pending) > 0 {
		slot.hasPhases = true
		p.e.phaseSlots[p.id] = p.pending
		p.pending = nil
	} else {
		slot.hasPhases = false
	}
}

// issue submits one cycle operation, firing a scheduled crash-stop first:
// a processor with a FaultPlan crash at cycle c completes exactly c cycle
// operations and dies before issuing the next one. The crash unwinds only
// this goroutine (crashPanic); the run continues without the processor.
// Deterministic: the trigger depends only on this processor's own op count,
// which in a lock-step run equals the global cycle index.
func (p *Proc) issue(kind opKind, writeCh, readCh int32, msg Message) readResult {
	p.steps++
	if fs := p.e.faults; fs != nil {
		if c := fs.crashCycle(p.id); c >= 0 && p.steps > c {
			fs.recordCrash(p.id, c)
			panic(crashPanic{})
		}
	}
	p.fillSlot(kind, writeCh, readCh, msg)
	return p.e.step(p.id, kind)
}

// WriteRead broadcasts m on channel writeCh and reads channel readCh in the
// same cycle. It returns the message observed on readCh and whether the
// channel was written at all this cycle (ok=false reports silence). Reading
// the channel just written observes the processor's own message.
func (p *Proc) WriteRead(writeCh int, m Message, readCh int) (Message, bool) {
	r := p.issue(opWriteRead, int32(writeCh), int32(readCh), m)
	return r.msg, r.ok
}

// Write broadcasts m on channel writeCh and does not read this cycle.
func (p *Proc) Write(writeCh int, m Message) {
	p.issue(opWrite, int32(writeCh), 0, m)
}

// Read reads channel readCh this cycle without writing. ok=false reports
// that no processor wrote the channel (silence).
func (p *Proc) Read(readCh int) (Message, bool) {
	r := p.issue(opRead, 0, int32(readCh), Message{})
	return r.msg, r.ok
}

// Idle spends one cycle without touching any channel.
func (p *Proc) Idle() {
	p.issue(opIdle, 0, 0, Message{})
}

// IdleN spends n cycles idle. n <= 0 is a no-op.
//
// The first cycle goes through the full issue path — it carries any pending
// phase markers and performs the crash-stop check. The remaining cycles take
// a fast path that skips both: no markers can be queued mid-loop, and the
// fast path is only taken when no scheduled crash-stop can fire inside the
// stretch, so per-cycle crash semantics are preserved exactly.
func (p *Proc) IdleN(n int) {
	if n <= 0 {
		return
	}
	p.Idle()
	if n--; n == 0 {
		return
	}
	if fs := p.e.faults; fs != nil {
		if c := fs.crashCycle(p.id); c >= 0 && p.steps+int64(n) > c {
			// The crash-stop fires inside this idle stretch: keep the
			// per-cycle path so it triggers on the exact cycle.
			for i := 0; i < n; i++ {
				p.Idle()
			}
			return
		}
	}
	// The slot content is identical for every remaining cycle, so it is
	// written once, and one submission covers the whole stretch: the owning
	// worker replays the opIdle slot for the remaining cycles without waking
	// this goroutine (see engine.stepIdleBatch). Steps and the watchdog
	// mirror are pre-credited — the goroutine parks for the stretch, so
	// per-cycle mirror updates would never be observed mid-flight anyway.
	p.fillSlot(opIdle, 0, 0, Message{})
	p.steps += int64(n)
	p.mirOps += uint64(n - 1)
	p.e.procMirror[p.id].v.Store(p.mirOps<<3 | uint64(opIdle))
	p.e.stepIdleBatch(p.id, n)
}

// Abortf fails the whole computation with a formatted error. It is meant for
// algorithm-level invariant violations; it does not return. The error is a
// structured *AbortError (matching errors.As) wrapping ErrAborted.
func (p *Proc) Abortf(format string, args ...any) {
	p.abortWith(&AbortError{Proc: p.id, VProc: -1, Msg: fmt.Sprintf(format, args...)})
}

// abortWith fails the whole computation with a structured error; it does not
// return. The simulation layer uses it to surface virtual-processor aborts
// with their virtual id attached.
func (p *Proc) abortWith(err error) {
	p.e.abort(err)
	panic(abortPanic{err})
}

// AccountAux adjusts this processor's auxiliary-memory estimate by delta
// words and records the high-water mark in Stats.MaxAux. The engine does not
// measure memory itself; algorithms call this to make their auxiliary-storage
// claims (O(1), O(n_i), ...) observable in experiments.
func (p *Proc) AccountAux(delta int64) {
	p.auxWords += delta
	for {
		cur := p.e.maxAux.Load()
		if p.auxWords <= cur || p.e.maxAux.CompareAndSwap(cur, p.auxWords) {
			return
		}
	}
}

// exit leaves the lock-step protocol. Any engine-failure panic raised while
// exiting is swallowed: the engine result is already determined. A phase
// marker still pending here rides on the exit op, so it registers even when
// it was queued after the processor's last traffic cycle.
func (p *Proc) exit() {
	defer func() { _ = recover() }()
	p.fillSlot(opExit, 0, 0, Message{})
	p.e.step(p.id, opExit)
}
