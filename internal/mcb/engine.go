package mcb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"mcbnet/internal/trace"
)

// Config describes an MCB(p, k) network and run options.
type Config struct {
	// P is the number of processors (p >= 1).
	P int
	// K is the number of shared broadcast channels (1 <= k <= p).
	K int
	// MaxCycles aborts the run once this many cycles have elapsed: the run
	// executes exactly MaxCycles cycles, then fails before delivering the
	// results of the last one. Zero means no limit.
	MaxCycles int64
	// StallTimeout aborts the run if no cycle completes for this long,
	// which indicates a processor program that stopped issuing cycle
	// operations (a lock-step protocol bug). Zero means 30 seconds.
	StallTimeout time.Duration
	// MaxAbs, when positive, enforces the model's O(log beta) message-size
	// rule at runtime: any broadcast payload field whose absolute value
	// exceeds this budget aborts the run. Zero disables the check.
	MaxAbs int64
	// Faults enables deterministic fault injection (see FaultPlan). Nil
	// injects nothing.
	Faults *FaultPlan
	// Recorder, when non-nil, streams fixed-size binary cycle events
	// (writes, reads, silences, idles, collisions, faults, phase switches)
	// into the recorder's preallocated per-processor ring buffers for later
	// export (JSONL, Perfetto; see internal/trace). It never allocates per
	// event and never grows: a full ring overwrites its oldest events. It
	// leaves the run's Stats unchanged. It must be sized for at least P
	// processors and must not be shared between concurrent runs; consecutive
	// runs (e.g. retry attempts) may share one, appending their events.
	Recorder *trace.Recorder
	// ProfileLabels attaches pprof goroutine labels (processor id, current
	// accounting phase) to processor goroutines, so CPU profiles attribute
	// samples to algorithm phases (Columnsort stages, selection filter
	// rounds). Off by default; labeling costs a few allocations per phase
	// switch.
	ProfileLabels bool
	// AbortGrace bounds how long Run waits for processor goroutines to
	// unwind after an abort before giving up and returning a nil Result
	// (the stragglers' goroutines leak; see Run). Zero means 2 seconds.
	AbortGrace time.Duration
	// AbortC, when non-nil, is closed as soon as the run fails, before Run
	// returns. Programs that block on sources other than the engine (e.g. a
	// transport relay waiting for a remote processor's next op) select on it
	// to unwind promptly instead of wedging the abort grace period. It is
	// never closed on a successful run.
	AbortC chan struct{}
}

func (c Config) validate() error {
	if c.P < 1 {
		return fmt.Errorf("mcb: P must be >= 1, got %d", c.P)
	}
	if c.K < 1 || c.K > c.P {
		return fmt.Errorf("mcb: K must satisfy 1 <= K <= P, got K=%d P=%d", c.K, c.P)
	}
	if c.Recorder != nil && c.Recorder.Procs() < c.P {
		return fmt.Errorf("mcb: recorder sized for %d processors, network has %d", c.Recorder.Procs(), c.P)
	}
	return nil
}

// CollisionError reports a violation of the collision-freedom requirement:
// two processors wrote the same channel in the same cycle. Per the model,
// the computation fails.
type CollisionError struct {
	Cycle        int64
	Ch           int
	ProcA, ProcB int
}

func (e *CollisionError) Error() string {
	return fmt.Sprintf("mcb: collision on channel %d at cycle %d (processors %d and %d)",
		e.Ch, e.Cycle, e.ProcA, e.ProcB)
}

// ErrAborted is returned when the run was aborted (stall, cycle limit, or
// a processor called Abortf); errors.Is works against it.
var ErrAborted = errors.New("mcb: run aborted")

// Result is the outcome of a completed run.
type Result struct {
	Stats Stats
}

type opKind uint8

const (
	opIdle opKind = iota
	opWrite
	opRead
	opWriteRead
	opExit
)

// cycleOp is one processor's submission for one cycle. It is kept slim (no
// pointers in the common case) so a padded slot fits one cache line; the
// rarely-used phase markers travel in engine.phaseSlots, flagged here by
// hasPhases.
type cycleOp struct {
	kind      opKind
	hasPhases bool // phase markers for this op are in engine.phaseSlots
	writeCh   int32
	readCh    int32
	msg       Message
}

type readResult struct {
	msg Message
	ok  bool
}

// cacheLine is the padding granularity for the per-processor hot arrays.
// 64 bytes matches amd64 and most arm64 parts; on machines with larger
// effective lines the padding merely halves, it never breaks correctness.
const cacheLine = 64

// paddedOp, paddedResult and paddedMirror pad their payload to a cache-line
// multiple so that neighbouring processors' slot writes (each processor
// stores only its own index; the resolver reads them all) never contend on
// a shared line (false sharing).
type paddedOp struct {
	op cycleOp
	_  [(cacheLine - unsafe.Sizeof(cycleOp{})%cacheLine) % cacheLine]byte
}

type paddedResult struct {
	r readResult
	_ [(cacheLine - unsafe.Sizeof(readResult{})%cacheLine) % cacheLine]byte
}

type paddedMirror struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// abortPanic unwinds processor goroutines when the engine has failed.
type abortPanic struct{ err error }

// crashPanic unwinds a single processor goroutine when its scheduled
// crash-stop fires; the run itself keeps going.
type crashPanic struct{}

// paddedInt64 is a cache-line-isolated signed atomic, used for the per-worker
// outstanding-submission countdowns.
type paddedInt64 struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// engine is the state of one run. Processor programs run on their own
// goroutines, but the per-cycle coordination belongs to M = min(GOMAXPROCS,
// p) shard workers, each owning a contiguous range of processor ids (see
// sharded.go for the cycle protocol).
type engine struct {
	cfg Config

	// Shard-worker state. Processor id i is owned by worker i/shardChunk;
	// the workers, not the processors, rendezvous at the arrived/expected
	// barrier. workerLive and activeWorkers are resolver-owned (synchronized
	// by the barrier like live/liveN).
	shardChunk    int
	shards        []shardWorker
	gates         []chan struct{} // per-processor wake gates, cap 1
	idleBatch     []paddedMirror  // per-processor pending IdleN batch length
	shardPend     []paddedInt64   // per-worker outstanding submissions this cycle
	workerWake    []chan struct{} // per-worker "all submissions in" tokens, cap 1
	workerLive    []int           // per-worker live processor count
	activeWorkers int             // workers with at least one live processor

	slots      []paddedOp     // per-processor cycle submissions
	results    []paddedResult // per-processor read results
	phaseSlots [][]string     // per-processor pending phase markers (cold)
	live       []bool
	liveN      int

	// channel registers for the cycle being resolved
	chWriter []int // writer proc id per channel, -1 if none
	chMsg    []Message
	chOutage []bool // per-channel outage flag, recomputed once per cycle

	// chTouched lists the channels written this cycle, in write order:
	// resolve clears the previous cycle's registers and commits this
	// cycle's through it in O(writes) instead of sweeping all K. chWriter
	// starts all -1 to match.
	chTouched []int32
	// act is resolve's per-cycle active-processor scratch: ascending ids of
	// the live processors with a fresh submission this cycle, excluding
	// IdleN-batch sleepers.
	act []int32

	// Worker barrier: a sense-reversing generation counter plus spin-then-park
	// waiters. Arrival is counted in arrived; the last arriving worker
	// resolves the cycle and advances barGen (the "sense"), which releases the
	// spinners; waiters that gave up spinning park on barCond and are woken
	// only when parked says somebody is actually there. The three atomics
	// live on separate cache lines: arrived takes a contended RMW per worker
	// per cycle, barGen is read-spun by every waiter.
	_pad0    [cacheLine]byte
	arrived  atomic.Int32
	_pad1    [cacheLine - 4]byte
	expected atomic.Int32
	_pad2    [cacheLine - 4]byte
	barGen   atomic.Uint64
	_pad3    [cacheLine - 8]byte

	parked    atomic.Int32
	barMu     sync.Mutex
	barCond   sync.Cond
	busySpins int // pure-spin probes before yielding; 0 on GOMAXPROCS=1

	cycles atomic.Int64 // progress counter for the watchdog
	// procMirror[i] is an atomic mirror of processor i's slot-table state,
	// packed (steps << 3 | opKind). Written only by processor i (in step),
	// read by the stall watchdog for diagnostics.
	procMirror []paddedMirror
	faults     *faultState
	stats      Stats
	phaseIdx   map[string]int  // phase name -> index in stats.Phases
	curPhase   int             // index of the active phase, -1 before any marker
	rec        *trace.Recorder // cycle event recorder, nil when tracing is off
	recPhase   int32           // recorder-interned id of the active phase, -1 before any
	failed     atomic.Bool
	abortErr   error
	abortMu    sync.Mutex
	aborted    chan struct{} // closed on failure
	abortOne   sync.Once
	allDone    chan struct{} // closed when all processors exit

	maxAux atomic.Int64
}

func (e *engine) abort(err error) {
	e.abortMu.Lock()
	if e.abortErr == nil {
		e.abortErr = err
	}
	e.abortMu.Unlock()
	e.failed.Store(true)
	e.abortOne.Do(func() {
		close(e.aborted)
		if e.cfg.AbortC != nil {
			close(e.cfg.AbortC)
		}
	})
	// Wake parked waiters so they observe the failure; spinners check the
	// failed flag on every probe. failed is stored before taking barMu, and a
	// waiter holds barMu from its parked re-check until Wait releases it, so
	// this Broadcast cannot slip into that window: the waiter either sees
	// failed set and never parks, or parks before we acquire the lock and is
	// woken by the Broadcast.
	e.barMu.Lock()
	e.barCond.Broadcast()
	e.barMu.Unlock()
	// Also wake workers sleeping on their submission token so they observe
	// the failure and release their parked processors.
	for w := range e.workerWake {
		select {
		case e.workerWake[w] <- struct{}{}:
		default:
		}
	}
}

func (e *engine) abortError() error {
	e.abortMu.Lock()
	defer e.abortMu.Unlock()
	return e.abortErr
}

// softErr records a processor program error without tearing down the barrier
// immediately; the processor exits normally and the run fails at the end.
func (e *engine) softErr(err error) {
	e.abortMu.Lock()
	if e.abortErr == nil {
		e.abortErr = err
	}
	e.abortMu.Unlock()
}

// barrierYields bounds how many scheduler yields a waiting worker spends
// probing the generation counter before parking on the condition variable.
// Once every worker has arrived the merge is O(writes + M), so on a healthy
// run a couple of yields suffice; the park path is the backstop for
// oversubscribed machines and programs doing long local computation.
const barrierYields = 16

// await blocks a worker until the barrier generation has advanced past g (the
// cycle it arrived for has been resolved) or the run has failed. It
// spins first — pure probes while other cores may be resolving, then
// scheduler yields — and parks on barCond as a last resort.
func (e *engine) await(g uint64) {
	for i := 0; i < e.busySpins; i++ {
		if e.barGen.Load() != g || e.failed.Load() {
			return
		}
	}
	for i := 0; i < barrierYields; i++ {
		if e.barGen.Load() != g || e.failed.Load() {
			return
		}
		runtime.Gosched()
	}
	e.barMu.Lock()
	for e.barGen.Load() == g && !e.failed.Load() {
		e.parked.Add(1)
		// Re-check after publishing parked: advance() reads parked after
		// bumping the generation, so either it sees our increment and
		// broadcasts, or this probe sees the new generation — never neither.
		if e.barGen.Load() != g || e.failed.Load() {
			e.parked.Add(-1)
			break
		}
		e.barCond.Wait()
		e.parked.Add(-1)
	}
	e.barMu.Unlock()
}

// advance opens the next barrier generation and releases this cycle's
// waiters. The generation bump is the release edge for all plain stores the
// resolver made (results, stats): waiters synchronize on loading the new
// value. Called only by the resolver. The barrier counts workers with live
// processors.
func (e *engine) advance() {
	e.arrived.Store(0)
	e.expected.Store(int32(e.activeWorkers))
	e.barGen.Add(1)
	// Park-ordering invariant (see TestBarrierAbortStorm): parked is read
	// only after the generation bump above, while a waiter publishes its
	// parked increment before re-checking the generation (under barMu, before
	// Wait). sync/atomic's total order over these four operations leaves no
	// interleaving where the waiter parks and this load misses it: either we
	// observe parked > 0 and broadcast, or the waiter's re-check observes the
	// new generation and never waits.
	if e.parked.Load() > 0 {
		e.barMu.Lock()
		e.barCond.Broadcast()
		e.barMu.Unlock()
	}
}

// switchPhase makes name the active accounting phase, creating its Stats
// entry on first sight. Re-marking the active phase is a no-op; segments
// sharing a name share one entry. id is the processor whose marker caused
// the switch (trace attribution only).
func (e *engine) switchPhase(id int, name string) {
	if e.curPhase >= 0 && e.stats.Phases[e.curPhase].Name == name {
		return
	}
	idx, ok := e.phaseIdx[name]
	if !ok {
		idx = len(e.stats.Phases)
		// PerChannel is allocated here, at phase creation, so the per-cycle
		// commit loops stay branch- and allocation-free; finalize drops it
		// again for phases that never broadcast, keeping the documented
		// "nil if the phase broadcast nothing" Report shape.
		e.stats.Phases = append(e.stats.Phases, PhaseStats{Name: name, PerChannel: make([]int64, e.cfg.K)})
		e.phaseIdx[name] = idx
	}
	e.curPhase = idx
	if e.rec != nil {
		e.recPhase = e.rec.PhaseID(name)
		e.rec.Record(trace.Event{Cycle: e.stats.Cycles, Proc: int32(id), Ch: -1,
			Phase: e.recPhase, Kind: trace.KindPhase})
	}
}

// consumePhases registers processor id's pending phase markers, if any.
func (e *engine) consumePhases(id int) {
	for _, name := range e.phaseSlots[id] {
		e.switchPhase(id, name)
	}
	e.phaseSlots[id] = nil
}

// stageWrite validates processor id's write and registers it in the channel
// slots. It returns false when the write aborted the run. Stats are not
// touched here (see the invariant on resolve).
func (e *engine) stageWrite(id int, op *cycleOp) bool {
	c := int(op.writeCh)
	if c < 0 || c >= e.cfg.K {
		e.abort(fmt.Errorf("%w: processor %d wrote invalid channel %d", ErrAborted, id, c))
		return false
	}
	if prev := e.chWriter[c]; prev >= 0 {
		if e.rec != nil {
			e.rec.Record(trace.Event{Cycle: e.stats.Cycles, Proc: int32(id), Ch: int32(c),
				Phase: e.recPhase, Arg: int64(prev), Kind: trace.KindCollision})
		}
		e.abort(&CollisionError{Cycle: e.stats.Cycles, Ch: c, ProcA: prev, ProcB: id})
		return false
	}
	if e.cfg.MaxAbs > 0 {
		if a := op.msg.maxAbs(); a > e.cfg.MaxAbs {
			e.abort(&BudgetError{Budget: "message-size", Limit: e.cfg.MaxAbs, Observed: a, Proc: id})
			return false
		}
	}
	e.chWriter[c] = id
	e.chMsg[c] = op.msg
	e.chTouched = append(e.chTouched, int32(c))
	return true
}

// markExited removes processor id from the lock-step protocol and retires
// the owning worker from the barrier head count when its last processor
// leaves. Called only by the resolver.
func (e *engine) markExited(id int) {
	e.live[id] = false
	e.liveN--
	w := id / e.shardChunk
	if e.workerLive[w]--; e.workerLive[w] == 0 {
		e.activeWorkers--
	}
}

// endCycle applies the run budgets and either finishes the run or opens the
// next barrier generation. On abort the generation is left closed: waiters
// observe the failed flag instead.
func (e *engine) endCycle() {
	if e.cfg.MaxCycles > 0 && e.stats.Cycles >= e.cfg.MaxCycles {
		e.abort(&BudgetError{Budget: "cycles", Limit: e.cfg.MaxCycles, Observed: e.stats.Cycles, Proc: -1})
		return
	}
	if e.liveN == 0 {
		// Exiting processors never wait on the cycle outcome, but the other
		// workers are parked at the rendezvous: the advance below lets them
		// observe termination and return (expected is already 0, so nothing
		// resolves again).
		close(e.allDone)
	}
	e.advance()
}

// resolve is the cycle resolver, executed by exactly one goroutine per
// cycle (the last arriving worker) and therefore free of data races. It
// applies the model's one rule — a channel carries its single writer's word
// or silence; a second writer fails the computation — plus fault injection
// at delivery, channel outages and cycle event recording, in processor-id
// order scans of the active processors, so runs are deterministic.
//
// Invariant: Stats reflects only fully resolved cycles. Validation (channel
// range, collision-freedom, the message-size budget) runs before any counter
// is touched, so a run that aborts mid-cycle leaves no partial increments
// from the failed cycle behind.
func (e *engine) resolve() {
	// Clear the previous cycle's registers through its touched list.
	// chWriter starts all -1 (engine setup) and stageWrite records every
	// registered channel in chTouched.
	for _, c := range e.chTouched {
		e.chWriter[c] = -1
	}
	e.chTouched = e.chTouched[:0]
	// Build this cycle's active list: live processors with a fresh
	// submission, in ascending id order. The workers maintain the split
	// incrementally and concatenating the shard lists in order yields id
	// order; processors sleeping through IdleN batches are known bare opIdle
	// slots and enter only as a count, so idle-heavy phases cost O(active).
	//
	// Retired shards (workerLive == 0) are skipped: their worker left the
	// barrier when its last processor exited, so its lists are no longer
	// synchronized with this resolution — they are stale leftovers of its
	// final round, and the worker may still be mutating them on its way out.
	// A live shard's worker arrived this round, which orders its updates
	// before this read.
	act := e.act[:0]
	sleepers := 0
	for w := range e.shards {
		if e.workerLive[w] == 0 {
			continue
		}
		act = append(act, e.shards[w].active...)
		sleepers += len(e.shards[w].sleep)
	}
	e.act = act
	// Phase markers: consumed up front, in processor-id order, so an entry
	// exists even for a zero-traffic phase (a marker riding on the final
	// exit op still registers) and a cycle that aborts still registers
	// every marker its active processors carried. Sleepers never carry
	// markers: an IdleN batch's first cycle goes through the full per-cycle
	// path.
	for _, id := range act {
		if e.slots[id].op.hasPhases {
			e.consumePhases(int(id))
		}
	}
	// A sleeping processor idles this cycle by definition, so the cycle saw
	// work even if every active submission is an exit.
	sawWork := sleepers > 0
	cycle := e.stats.Cycles
	var plan *FaultPlan
	if e.faults != nil {
		plan = e.faults.plan
	}
	// Outage status is a function of (channel, cycle) only: compute it once
	// per channel here instead of once per reader plus once per written
	// channel at commit. chOutage stays all-false when the plan has no
	// outage windows (it is never written then).
	if plan != nil && len(plan.Outages) > 0 {
		for c := range e.chOutage {
			e.chOutage[c] = plan.outageAt(c, cycle)
		}
	}
	// Sleeper idle events: each processor mid-IdleN-batch idles this cycle.
	// Recorded after the phase pass so the events carry the cycle's active
	// phase, exactly like a per-cycle opIdle would; the recorder's rings are
	// per-processor, so emitting them ahead of the active scan (rather than
	// interleaved in id order) changes no observable ordering.
	if e.rec != nil && sleepers > 0 {
		for w := range e.shards {
			if e.workerLive[w] == 0 {
				continue
			}
			for _, s := range e.shards[w].sleep {
				e.rec.Record(trace.Event{Cycle: cycle, Proc: s.id, Ch: -1,
					Phase: e.recPhase, Kind: trace.KindIdle})
			}
		}
	}
	// Pass 1: writes — register into the channel slots and validate, but do
	// not touch Stats yet (see the invariant above).
	for _, id32 := range act {
		id := int(id32)
		op := &e.slots[id].op
		switch op.kind {
		case opWrite, opWriteRead:
			sawWork = true
			if !e.stageWrite(id, op) {
				return
			}
			if e.rec != nil {
				e.rec.Record(trace.Event{Cycle: cycle, Proc: int32(id), Ch: op.writeCh,
					Phase: e.recPhase, Arg: op.msg.X, Kind: trace.KindWrite})
			}
		case opRead, opIdle, opExit:
			if op.kind != opExit {
				sawWork = true
				if op.kind == opIdle && e.rec != nil {
					e.rec.Record(trace.Event{Cycle: cycle, Proc: int32(id), Ch: -1,
						Phase: e.recPhase, Kind: trace.KindIdle})
				}
			}
		}
	}
	// Pass 2: reads, with fault injection at delivery. Fault counters are
	// staged locally and committed with the cycle (see the invariant above).
	var fDelta FaultStats
	for _, id32 := range act {
		id := int(id32)
		op := &e.slots[id].op
		if op.kind != opRead && op.kind != opWriteRead {
			continue
		}
		c := int(op.readCh)
		if c < 0 || c >= e.cfg.K {
			e.abort(fmt.Errorf("%w: processor %d read invalid channel %d", ErrAborted, id, c))
			return
		}
		var rr readResult
		var faultCode int64
		if e.chWriter[c] >= 0 && !e.chOutage[c] {
			msg := e.chMsg[c]
			switch {
			case plan.dropAt(cycle, id, c):
				fDelta.Drops++ // reader sees silence
				faultCode = trace.FaultDrop
			default:
				if cm, garbled := plan.corruptAt(cycle, id, c, msg); garbled {
					if plan.Checksum && msgSum(msg) != msgSum(cm) {
						// Detected: the garbled frame is discarded, the
						// reader observes silence.
						fDelta.Detected++
						faultCode = trace.FaultDetected
					} else {
						fDelta.Corruptions++
						faultCode = trace.FaultCorrupt
						rr = readResult{msg: cm, ok: true}
					}
				} else {
					rr = readResult{msg: msg, ok: true}
				}
			}
		}
		e.results[id].r = rr
		if e.rec != nil {
			if faultCode != 0 {
				e.rec.Record(trace.Event{Cycle: cycle, Proc: int32(id), Ch: int32(c),
					Phase: e.recPhase, Arg: faultCode, Kind: trace.KindFault})
			}
			ev := trace.Event{Cycle: cycle, Proc: int32(id), Ch: int32(c), Phase: e.recPhase}
			if rr.ok {
				ev.Kind, ev.Arg = trace.KindRead, rr.msg.X
			} else {
				ev.Kind = trace.KindSilence
			}
			e.rec.Record(ev)
		}
	}
	// Pass 3: exits.
	for _, id32 := range act {
		if e.slots[id32].op.kind == opExit {
			e.markExited(int(id32))
		}
	}
	// Commit: the cycle resolved without failure, so fold its traffic into
	// Stats (and the active phase) now. Any channel order commits the same:
	// the counters are sums and maxima, and each writer records at most one
	// outage event per cycle.
	var ph *PhaseStats
	if e.curPhase >= 0 {
		ph = &e.stats.Phases[e.curPhase]
	}
	for _, c32 := range e.chTouched {
		c := int(c32)
		id := e.chWriter[c]
		e.stats.Messages++
		e.stats.PerProc[id]++
		e.stats.PerChannel[c]++
		if e.chOutage[c] {
			fDelta.OutageLosses++
			// Per-channel attribution for the degradation retry. Allocated
			// lazily on the first actual loss, so fault-free runs (and faulted
			// runs without outages) keep the steady-state zero-alloc invariant.
			if e.stats.Faults.OutagePerChannel == nil {
				e.stats.Faults.OutagePerChannel = make([]int64, e.cfg.K)
			}
			e.stats.Faults.OutagePerChannel[c]++
			if e.rec != nil {
				e.rec.Record(trace.Event{Cycle: cycle, Proc: int32(id), Ch: int32(c),
					Phase: e.recPhase, Arg: trace.FaultOutage, Kind: trace.KindFault})
			}
		}
		if a := e.chMsg[c].maxAbs(); a > e.stats.MaxAbs {
			e.stats.MaxAbs = a
		}
		if ph != nil {
			ph.Messages++
			ph.PerChannel[c]++
		}
	}
	if plan != nil {
		// Only a plan stages fault counters. Committing an empty delta
		// anyway measured about a fifth of a bare cycle
		// (BenchmarkBarrierRoundTrip, p=64, 2 CPUs).
		e.stats.Faults.add(&fDelta)
	}
	if sawWork {
		e.stats.Cycles++
		e.cycles.Store(e.stats.Cycles)
		if ph != nil {
			ph.Cycles++
		}
	}
	e.endCycle()
}

// finalize folds the cross-goroutine watermarks and the derived per-phase
// utilization into Stats. Called once, after every processor goroutine has
// stopped.
func (e *engine) finalize() {
	if aux := e.maxAux.Load(); aux > e.stats.MaxAux {
		e.stats.MaxAux = aux
	}
	if evs, _ := e.faults.crashes(); len(evs) > 0 {
		e.stats.Faults.Crashes = evs
		if e.rec != nil {
			// Crashes fire on processor goroutines, so they are recorded
			// here, after quiescence, rather than racing with the resolver.
			// The canonical event order sorts them into their cycle.
			for _, ev := range evs {
				e.rec.Record(trace.Event{Cycle: ev.Cycle, Proc: int32(ev.Proc), Ch: -1,
					Phase: -1, Arg: trace.FaultCrash, Kind: trace.KindFault})
			}
		}
	}
	for i := range e.stats.Phases {
		ph := &e.stats.Phases[i]
		if ph.Cycles > 0 {
			ph.Utilization = float64(ph.Messages) / (float64(ph.Cycles) * float64(e.cfg.K))
		}
		// switchPhase preallocates PerChannel so the commit loops never
		// branch on it; restore the documented nil-when-silent shape here.
		if ph.Messages == 0 {
			ph.PerChannel = nil
		}
	}
}

// Run executes one program per processor on an MCB(cfg.P, cfg.K) network.
// programs[i] runs as processor i; it must follow the lock-step discipline
// of issuing exactly one cycle operation (WriteRead, Write, Read or Idle)
// whenever any other live processor does. Run returns when every program
// has returned, or with an error on collision, abort, panic or stall.
//
// On failure the error is accompanied by a partial *Result covering the
// cycles that completed before the abort, when the engine could collect it
// safely; the Result is nil if a processor goroutine could not be stopped.
func Run(cfg Config, programs []func(Node)) (*Result, error) {
	return RunContext(context.Background(), cfg, programs)
}

// RunContext is Run with cancellation: when ctx is cancelled the run aborts
// like any other typed failure. The abort error is context.Cause(ctx) when
// the caller installed a typed cause (context.WithCancelCause — the transport
// layer maps peer loss to a *StallError this way), otherwise a generic
// *AbortError carrying the context error, so errors.Is(err, ErrAborted)
// holds either way. A background context adds no per-cycle cost: the engine
// hot path never consults it; only the supervisor select does.
func RunContext(ctx context.Context, cfg Config, programs []func(Node)) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(programs) != cfg.P {
		return nil, fmt.Errorf("mcb: %d programs for %d processors", len(programs), cfg.P)
	}
	e := &engine{
		cfg:        cfg,
		slots:      make([]paddedOp, cfg.P),
		results:    make([]paddedResult, cfg.P),
		phaseSlots: make([][]string, cfg.P),
		live:       make([]bool, cfg.P),
		chWriter:   make([]int, cfg.K),
		chMsg:      make([]Message, cfg.K),
		chOutage:   make([]bool, cfg.K),
		chTouched:  make([]int32, 0, cfg.K),
		act:        make([]int32, 0, cfg.P),
		procMirror: make([]paddedMirror, cfg.P),
		faults:     newFaultState(cfg.Faults, cfg.P),
		phaseIdx:   make(map[string]int),
		curPhase:   -1,
		aborted:    make(chan struct{}),
		allDone:    make(chan struct{}),
		rec:        cfg.Recorder,
		recPhase:   -1,
	}
	if e.rec != nil {
		e.rec.StartRun(cfg.K)
	}
	// resolve clears registers through its touched list instead of sweeping
	// all K, so the registers must start empty.
	for c := range e.chWriter {
		e.chWriter[c] = -1
	}
	e.stats.PerProc = make([]int64, cfg.P)
	e.stats.PerChannel = make([]int64, cfg.K)
	for i := range e.live {
		e.live[i] = true
	}
	e.liveN = cfg.P
	e.barCond.L = &e.barMu
	if runtime.GOMAXPROCS(0) > 1 {
		// With real parallelism a short pure-spin window usually catches the
		// resolver finishing on another core; on a single-P runtime it would
		// only delay the resolver, so waiters go straight to yielding.
		e.busySpins = 96
	}
	e.initShards()

	var wg sync.WaitGroup
	for i := 0; i < cfg.P; i++ {
		p := &Proc{id: i, e: e}
		prog := programs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if cfg.ProfileLabels {
				p.setProfileLabels("")
			}
			defer func() {
				r := recover()
				switch r := r.(type) {
				case nil:
					// Normal return: leave the lock-step protocol.
					p.exit()
				case abortPanic:
					// Engine already failed; nobody waits for us.
				case crashPanic:
					// Injected crash-stop: the processor dies silently but
					// leaves the barrier protocol so the survivors keep
					// running. The crash is surfaced as a CrashError at the
					// end of the run, not as an immediate abort.
					p.exit()
				default:
					// Program bug: record it, then exit the protocol so the
					// remaining processors are not deadlocked.
					e.softErr(fmt.Errorf("%w: processor %d panicked: %v", ErrAborted, p.id, r))
					p.exit()
				}
			}()
			prog(p)
		}()
	}
	for w := range e.shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.workerRun(w)
		}(w)
	}

	stall := cfg.StallTimeout
	if stall == 0 {
		stall = 30 * time.Second
	}
	timer := time.NewTicker(stall)
	defer timer.Stop()
	last := int64(-1)
	grace := cfg.AbortGrace
	if grace == 0 {
		grace = 2 * time.Second
	}
	// outcome resolves the final error once the engine is quiescent: an
	// injected crash-stop dominates any secondary abort it provoked (the
	// crash is the root cause; a "missing broadcast" Abortf downstream of a
	// dead processor is a symptom).
	outcome := func() error {
		if evs, first := e.faults.crashes(); len(evs) > 0 {
			procs := make([]int, len(evs))
			for i, ev := range evs {
				procs[i] = ev.Proc
			}
			return &CrashError{Procs: procs, Cycle: first}
		}
		return e.abortError()
	}
	ctxDone := ctx.Done()
	for {
		select {
		case <-ctxDone:
			// Cancelled from outside: fail the run with the caller's typed
			// cause when one was installed, then let the abort path below
			// collect the partial result. Nil the channel so this case fires
			// once.
			cause := context.Cause(ctx)
			if cause == nil || cause == ctx.Err() {
				cause = &AbortError{Proc: -1, VProc: -1, Msg: "context: " + ctx.Err().Error()}
			}
			e.abort(cause)
			ctxDone = nil
		case <-e.allDone:
			wg.Wait()
			e.finalize()
			return &Result{Stats: e.stats}, outcome()
		case <-e.aborted:
			// Give processor goroutines a chance to unwind; those blocked in
			// local computation will hit the failed check on their next step.
			// A program spinning forever without issuing cycle ops cannot be
			// stopped; give up waiting after the grace period (its goroutine
			// leaks, but Run still reports the abort).
			unwound := make(chan struct{})
			go func() { wg.Wait(); close(unwound) }()
			select {
			case <-unwound:
				// Every goroutine unwound, so Stats is quiescent: return it
				// alongside the error. It covers completed cycles only.
				e.finalize()
				return &Result{Stats: e.stats}, outcome()
			case <-time.After(grace):
				// A goroutine may still be running; touching Stats would race.
				return nil, e.abortError()
			}
		case <-timer.C:
			if c := e.cycles.Load(); c == last {
				e.abort(&StallError{Timeout: stall, Cycle: c, Stalled: e.stallDiagnostics()})
			} else {
				last = c
			}
		}
	}
}

// RunUniform runs the same program on every processor; the program
// distinguishes processors via Proc.ID.
func RunUniform(cfg Config, program func(Node)) (*Result, error) {
	progs := make([]func(Node), cfg.P)
	for i := range progs {
		progs[i] = program
	}
	return Run(cfg, progs)
}
