package mcb

import (
	"fmt"
	"runtime"
)

// This file is the engine's cycle coordination, built for the p >> cores
// regime the paper's algorithms are stated in. Processor programs run on
// their own goroutines (they are arbitrary blocking func(Node) bodies), but
// the per-cycle coordination is delegated to M = min(GOMAXPROCS, p) workers,
// each owning a contiguous shard of p/M processors, and cycle resolution
// runs as a two-stage parallel protocol:
//
//   - A processor submits its cycle op by writing its slot, decrementing its
//     worker's outstanding-submission countdown, and parking on its private
//     gate channel. It never touches the shared barrier.
//   - Stage 1 (parallel, pre-barrier): once its countdown drains, each worker
//     folds its own shard — phase-marker ids, write ops into a per-shard
//     per-channel claim vector (first writer id + message; a second intra-
//     shard writer is a collision), read and exit lists — and only then
//     arrives at the shared arrived/expected barrier, which counts workers,
//     not processors. The fold walks the worker's ACTIVE list, not the shard
//     range: processors replaying IdleN batches sleep in a (wake-round, id)
//     min-heap and cost nothing per cycle, so idle-heavy phases (the §8
//     selection-filter shape) cost O(active), not O(p).
//   - Stage 2 (serial, last arriver): resolveMerge merges the M claim
//     vectors in shard order — which is processor-id order, so collision
//     attribution, abort order and phase-marker order are byte-identical to
//     the serial resolver — and commits channel registers and stats over the
//     touched channels only.
//   - Stage 3 (parallel, post-release): every worker scatters the read
//     results to its own shard from the merged channel registers, then wakes
//     exactly the owned processors that owe a fresh submission.
//
// Runs with faults or a cycle recorder skip the fold and scatter: the last
// arriver runs resolveGeneral, the serial processor-id-order reference,
// over the concatenated active lists, with the same active-list skip.
//
// The per-cycle cost model: one gate send + one countdown RMW per ACTIVE
// processor, an O(active/M) stage-1 fold and stage-3 scatter per worker in
// parallel, an O(M) worker rendezvous, and an O(writes + M) stage-2 merge.
// See DESIGN.md "Engine internals".
//
// Memory ordering: a processor's slot write happens-before the worker's fold
// via the countdown RMW chain and the wake token; every worker's fold
// happens-before the merge via the arrived counter's RMW chain; the merge's
// register and stats writes happen-before the scatters via the barrier
// generation bump (release) and each worker's acquire load in await; a
// worker's scatter writes happen-before its processors' reads via the gate
// send, and happen-before the NEXT merge (which clears the registers) via
// the next cycle's arrived chain. All edges are sync/atomic or channel
// operations, so the race detector checks them for real.

// sleeper is one processor inside an IdleN batch: its slot keeps standing for
// a bare opIdle every cycle without any per-cycle work, and it rejoins the
// active list (regaining its gate token) at round wake.
type sleeper struct {
	wake int64
	id   int32
}

func sleeperLess(a, b sleeper) bool {
	return a.wake < b.wake || (a.wake == b.wake && a.id < b.id)
}

// readerRec is one pending read of the cycle being folded: processor id
// observes channel ch. Collected in stage 1, served in stage 3.
type readerRec struct {
	id int32
	ch int32
}

// shardWorker is the per-worker state: the contiguous range [lo, hi) of
// processor ids it owns, the active/sleeping split of those processors, and
// the stage-1 fold aggregates the merge consumes.
//
// Everything here is owned by the worker goroutine between barriers; the
// resolver (one of the workers) reads it only after every worker has arrived.
type shardWorker struct {
	lo, hi int
	round  int64 // index of the round currently being collected

	// active holds the owned ids that owe a fresh submission each cycle —
	// live and not inside an IdleN batch — in ascending order, so the merge
	// visiting shards in order sees processors in id order. sleep is a
	// min-heap on (wake, id); wakes is the reactivation scratch.
	active []int32
	sleep  []sleeper
	wakes  []int32

	// Stage-1 fold aggregates (fast path only; nil under faults/recorder).
	// claim[c] is the shard's first writer of channel c this cycle (-1 none)
	// with its message in claimMsg[c]; touched lists the claimed channels so
	// resetting is O(writes), not O(K).
	claim    []int32
	claimMsg []Message
	touched  []int32
	readers  []readerRec
	exits    []int32
	phaseIDs []int32 // ids with pending phase markers, ascending

	// First write-stage violation of the fold (-1 = clean): the lowest owned
	// id whose write failed validation, with the error the serial scan would
	// have raised there. Read-range violations are tracked separately because
	// the serial resolver only surfaces them after the whole write stage
	// succeeded.
	errID     int32
	err       error
	readErrID int32
	readErrCh int32
}

// pushSleep inserts a sleeper into the worker's min-heap.
func (wk *shardWorker) pushSleep(wake int64, id int32) {
	wk.sleep = append(wk.sleep, sleeper{wake: wake, id: id})
	i := len(wk.sleep) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !sleeperLess(wk.sleep[i], wk.sleep[par]) {
			break
		}
		wk.sleep[i], wk.sleep[par] = wk.sleep[par], wk.sleep[i]
		i = par
	}
}

// popSleep removes and returns the earliest-due sleeper. Equal wake rounds
// pop in ascending id order, which keeps mass reactivations (every processor
// leaving a barrier-style batch at once) presorted.
func (wk *shardWorker) popSleep() sleeper {
	top := wk.sleep[0]
	n := len(wk.sleep) - 1
	wk.sleep[0] = wk.sleep[n]
	wk.sleep = wk.sleep[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && sleeperLess(wk.sleep[r], wk.sleep[l]) {
			m = r
		}
		if !sleeperLess(wk.sleep[m], wk.sleep[i]) {
			break
		}
		wk.sleep[i], wk.sleep[m] = wk.sleep[m], wk.sleep[i]
		i = m
	}
	return top
}

// initShards sizes the worker set and allocates the per-worker state.
// Called from Run before any goroutine starts. The countdowns start primed:
// in round 0 the processors submit unprompted (nobody is parked yet), so the
// workers' first act is to wait for their tokens.
func (e *engine) initShards() {
	p, k := e.cfg.P, e.cfg.K
	m := runtime.GOMAXPROCS(0)
	if m > p {
		m = p
	}
	if m < 1 {
		m = 1
	}
	chunk := (p + m - 1) / m
	nw := (p + chunk - 1) / chunk
	e.shardChunk = chunk
	e.shards = make([]shardWorker, nw)
	e.gates = make([]chan struct{}, p)
	for i := range e.gates {
		e.gates[i] = make(chan struct{}, 1)
	}
	e.idleBatch = make([]paddedMirror, p)
	e.shardPend = make([]paddedInt64, nw)
	e.workerWake = make([]chan struct{}, nw)
	e.workerLive = make([]int, nw)
	if e.fast {
		e.chTouched = make([]int32, 0, k)
	}
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > p {
			hi = p
		}
		n := hi - lo
		wk := shardWorker{
			lo: lo, hi: hi,
			active:    make([]int32, n, n),
			sleep:     make([]sleeper, 0, n),
			wakes:     make([]int32, 0, n),
			errID:     -1,
			readErrID: -1,
		}
		for i := range wk.active {
			wk.active[i] = int32(lo + i)
		}
		if e.fast {
			wk.claim = make([]int32, k)
			for c := range wk.claim {
				wk.claim[c] = -1
			}
			wk.claimMsg = make([]Message, k)
			wk.touched = make([]int32, 0, n)
			wk.readers = make([]readerRec, 0, n)
			wk.phaseIDs = make([]int32, 0, n)
		}
		// exits feeds resolveMerge's sawWork/markExited in fast mode only
		// (the general resolver reads the exit ops itself), but it is cheap
		// and keeping it unconditional keeps the struct invariant simple.
		wk.exits = make([]int32, 0, n)
		e.shards[w] = wk
		e.workerLive[w] = n
		e.shardPend[w].v.Store(int64(n))
		e.workerWake[w] = make(chan struct{}, 1)
	}
	e.activeWorkers = nw
	e.expected.Store(int32(nw))
}

// step submits processor id's cycle op — the processor has already written
// it into slots[id] — to the owning worker and parks until the cycle is
// resolved, returning the read result for reading ops. Exiting processors do
// not wait for the outcome.
func (e *engine) step(id int, kind opKind) readResult {
	if e.failed.Load() {
		panic(abortPanic{e.abortError()})
	}
	e.submitShard(id)
	if kind == opExit {
		return readResult{}
	}
	<-e.gates[id]
	if e.failed.Load() {
		panic(abortPanic{e.abortError()})
	}
	return e.results[id].r
}

// submitShard counts processor id's submission against its worker's
// countdown; the last submission of the shard hands the worker its wake
// token. The send is non-blocking because abort() may already have stuffed
// the buffer.
func (e *engine) submitShard(id int) {
	w := id / e.shardChunk
	if e.shardPend[w].v.Add(-1) == 0 {
		select {
		case e.workerWake[w] <- struct{}{}:
		default:
		}
	}
}

// stepIdleBatch announces an n-cycle idle stretch (the slot already holds the
// opIdle submission and the mirror has been pre-credited, see Proc.IdleN) and
// parks for the whole stretch: the worker moves this processor to its sleep
// heap, the opIdle slot stands for the remaining n-1 cycles without waking
// this goroutine, and the gate send only comes with the end of the batch.
func (e *engine) stepIdleBatch(id int, n int) {
	if e.failed.Load() {
		panic(abortPanic{e.abortError()})
	}
	// The batch length must be visible before the submission is counted: the
	// worker reads idleBatch only after receiving the token the count drains
	// into.
	e.idleBatch[id].v.Store(uint64(n))
	e.submitShard(id)
	<-e.gates[id]
	if e.failed.Load() {
		panic(abortPanic{e.abortError()})
	}
}

// wakeShardProcs releases every owned processor gate (non-blocking: cap-1
// buffers make the token idempotent). Called by a worker leaving its loop on
// failure, so that parked processors wake, observe the failed flag and unwind
// — including a processor that parks AFTER this runs, since the token stays
// buffered for it.
func (e *engine) wakeShardProcs(wk *shardWorker) {
	for i := wk.lo; i < wk.hi; i++ {
		select {
		case e.gates[i] <- struct{}{}:
		default:
		}
	}
}

// refreshActive brings the worker's active list up to date for the round
// about to be collected: processors that exited last cycle drop out, and
// sleepers whose batch ends this round fold back in, keeping the list
// ascending. Reactivated processors get their gate token from the caller's
// normal wake pass like everyone else.
func (e *engine) refreshActive(wk *shardWorker) {
	keep := wk.active[:0]
	for _, id := range wk.active {
		if e.live[id] {
			keep = append(keep, id)
		}
	}
	wk.active = keep
	if len(wk.sleep) == 0 || wk.sleep[0].wake > wk.round {
		return
	}
	wk.wakes = wk.wakes[:0]
	for len(wk.sleep) > 0 && wk.sleep[0].wake <= wk.round {
		wk.wakes = append(wk.wakes, wk.popSleep().id)
	}
	// The heap pops equal wake rounds in id order, so the scratch is already
	// sorted unless batches of different lengths end on the same round;
	// insertion sort handles the nearly-sorted common case in linear time.
	for i := 1; i < len(wk.wakes); i++ {
		for j := i; j > 0 && wk.wakes[j] < wk.wakes[j-1]; j-- {
			wk.wakes[j], wk.wakes[j-1] = wk.wakes[j-1], wk.wakes[j]
		}
	}
	// Backward in-place merge of the two ascending runs (active has spare
	// capacity for every owned processor, so this never allocates).
	na, nw := len(wk.active), len(wk.wakes)
	wk.active = wk.active[:na+nw]
	i, j, k := na-1, nw-1, na+nw-1
	for j >= 0 {
		if i >= 0 && wk.active[i] > wk.wakes[j] {
			wk.active[k] = wk.active[i]
			i--
		} else {
			wk.active[k] = wk.wakes[j]
			j--
		}
		k--
	}
}

// foldShard is stage 1 of the fast path: aggregate this shard's submissions
// before arriving at the barrier. It walks the active list only — sleeping
// processors are known bare opIdle slots — and mirrors the serial resolver's
// per-op validation order (channel range, collision-freedom, message-size
// budget), stopping at the shard's first write-stage violation so nothing
// past the abort point is aggregated. Cross-shard collisions cannot be seen
// here; resolveMerge detects them against the claims of earlier shards.
func (e *engine) foldShard(wk *shardWorker) {
	k := int32(e.cfg.K)
	for _, id := range wk.active {
		op := &e.slots[id].op
		if op.hasPhases {
			// Recorded before validation: the serial scan consumes a
			// processor's markers before validating its op, so the markers of
			// the aborting processor itself still register.
			wk.phaseIDs = append(wk.phaseIDs, id)
		}
		switch op.kind {
		case opWrite, opWriteRead:
			c := op.writeCh
			if c < 0 || c >= k {
				wk.errID = id
				wk.err = fmt.Errorf("%w: processor %d wrote invalid channel %d", ErrAborted, id, c)
				return
			}
			if prev := wk.claim[c]; prev >= 0 {
				wk.errID = id
				wk.err = &CollisionError{Cycle: e.stats.Cycles, Ch: int(c), ProcA: int(prev), ProcB: int(id)}
				return
			}
			// The claim registers before the budget check so that a
			// cross-shard collision on this very op still resolves as a
			// collision in the merge (stageWrite checks collisions first).
			wk.claim[c] = id
			wk.claimMsg[c] = op.msg
			wk.touched = append(wk.touched, c)
			if e.cfg.MaxAbs > 0 {
				if a := op.msg.maxAbs(); a > e.cfg.MaxAbs {
					wk.errID = id
					wk.err = &BudgetError{Budget: "message-size", Limit: e.cfg.MaxAbs, Observed: a, Proc: int(id)}
					return
				}
			}
			if op.kind == opWriteRead {
				if rc := op.readCh; rc < 0 || rc >= k {
					if wk.readErrID < 0 {
						wk.readErrID, wk.readErrCh = id, rc
					}
				} else {
					wk.readers = append(wk.readers, readerRec{id: id, ch: rc})
				}
			}
		case opRead:
			if rc := op.readCh; rc < 0 || rc >= k {
				if wk.readErrID < 0 {
					wk.readErrID, wk.readErrCh = id, rc
				}
			} else {
				wk.readers = append(wk.readers, readerRec{id: id, ch: rc})
			}
		case opExit:
			wk.exits = append(wk.exits, id)
		}
		// opIdle contributes nothing to fold state: idle work is accounted
		// globally in resolveMerge (every live processor submits exactly one
		// op, so the cycle saw work unless every submission was an exit).
	}
}

// resolveMerge is stage 2 of the fast path, executed by the last-arriving
// worker only: merge the M shard aggregates in shard order (= processor-id
// order) and commit channel registers and stats. Under a nil plan it must be
// observably identical to resolveGeneral — abort attribution at the exact
// processor id the serial scan would have stopped at, phase markers consumed
// in id order up to and including that processor, and no stats from an
// aborted cycle.
func (e *engine) resolveMerge() {
	// Clear the previous cycle's registers via its touched list; the serial
	// resolver sweeps all K channels instead. chWriter starts all -1 (engine
	// setup), and every cycle's writes are recorded in chTouched below. The
	// previous cycle's scatters finished before their workers re-arrived, so
	// no stage-3 reader can observe this clear.
	for _, c := range e.chTouched {
		e.chWriter[c] = -1
	}
	e.chTouched = e.chTouched[:0]

	// Every loop below skips retired shards (workerLive == 0): their worker
	// left the barrier when its last processor exited, so its fold aggregates
	// are not synchronized with this resolution — they are stale leftovers of
	// its final round, possibly still being reset on the worker's way out. A
	// live shard's worker arrived this round, ordering its fold before this
	// merge.
	for w := range e.shards {
		if e.workerLive[w] == 0 {
			continue
		}
		wk := &e.shards[w]
		failID, failErr := wk.errID, wk.err
		// Cross-shard collisions: this shard's first claimant of a channel an
		// earlier shard already registered. The lowest such id is where the
		// serial scan would have aborted. A tie against the shard's own
		// violation resolves to the collision, because stageWrite checks
		// collision-freedom before the message-size budget.
		for _, c := range wk.touched {
			if prev := e.chWriter[c]; prev >= 0 {
				if id := wk.claim[c]; failID < 0 || id <= failID {
					failID = id
					failErr = &CollisionError{Cycle: e.stats.Cycles, Ch: int(c), ProcA: prev, ProcB: int(id)}
				}
			}
		}
		if failID >= 0 {
			// Serial abort semantics: markers up to and including the failing
			// processor are consumed, stats are untouched. Later shards hold
			// only higher ids, so this shard's violation is the global first.
			e.consumePhasesAborted(w, failID)
			e.abort(failErr)
			return
		}
		for _, c := range wk.touched {
			e.chWriter[c] = int(wk.claim[c])
			e.chMsg[c] = wk.claimMsg[c]
			e.chTouched = append(e.chTouched, c)
		}
	}
	// Write stage clean: consume every shard's phase markers, in id order.
	for w := range e.shards {
		if e.workerLive[w] == 0 {
			continue
		}
		for _, id := range e.shards[w].phaseIDs {
			e.consumePhases(int(id))
		}
	}
	// Read-range validation, in the serial pass-2 order: only after the whole
	// write stage (and phase consumption) succeeded, lowest id first, before
	// any exit or stat is applied.
	for w := range e.shards {
		if e.workerLive[w] == 0 {
			continue
		}
		wk := &e.shards[w]
		if wk.readErrID >= 0 {
			e.abort(fmt.Errorf("%w: processor %d read invalid channel %d", ErrAborted, wk.readErrID, wk.readErrCh))
			return
		}
	}
	// Exits and idle accounting. Every live processor submitted exactly one
	// op this cycle (sleepers replay opIdle), so the cycle saw work unless
	// every submission was an exit.
	totalExits := 0
	for w := range e.shards {
		if e.workerLive[w] == 0 {
			continue
		}
		totalExits += len(e.shards[w].exits)
	}
	sawWork := totalExits < e.liveN
	if totalExits > 0 {
		for w := range e.shards {
			if e.workerLive[w] == 0 {
				continue
			}
			for _, id := range e.shards[w].exits {
				e.markExited(int(id))
			}
		}
	}
	// Commit. The counters are sums and maxima, so the touched-list order
	// (shard-major, id order within) commits the same totals as the serial
	// resolver's channel sweep.
	var ph *PhaseStats
	if e.curPhase >= 0 {
		ph = &e.stats.Phases[e.curPhase]
	}
	for _, c := range e.chTouched {
		id := e.chWriter[c]
		e.stats.Messages++
		e.stats.PerProc[id]++
		e.stats.PerChannel[c]++
		if a := e.chMsg[c].maxAbs(); a > e.stats.MaxAbs {
			e.stats.MaxAbs = a
		}
		if ph != nil {
			ph.Messages++
			ph.PerChannel[c]++
		}
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

// consumePhasesAborted registers phase markers exactly as a serial scan that
// aborted at failID would have: every marker of the shards before failShard,
// plus failShard's markers up to and including failID.
func (e *engine) consumePhasesAborted(failShard int, failID int32) {
	for w := 0; w <= failShard; w++ {
		if e.workerLive[w] == 0 {
			continue
		}
		for _, id := range e.shards[w].phaseIDs {
			if w == failShard && id > failID {
				break
			}
			e.consumePhases(int(id))
		}
	}
}

// shardFinish is stage 3 of the fast path: after release, every worker
// scatters the cycle's read results to its own shard from the merged channel
// registers — in parallel with the other workers — and resets its fold
// aggregates. The registers stay stable until the next merge, which cannot
// start before every worker has re-arrived, i.e. after every scatter.
func (e *engine) shardFinish(wk *shardWorker) {
	for _, r := range wk.readers {
		if e.chWriter[r.ch] >= 0 {
			e.results[r.id].r = readResult{msg: e.chMsg[r.ch], ok: true}
		} else {
			e.results[r.id].r = readResult{}
		}
	}
	for _, c := range wk.touched {
		wk.claim[c] = -1
	}
	wk.touched = wk.touched[:0]
	wk.readers = wk.readers[:0]
	wk.exits = wk.exits[:0]
	wk.phaseIDs = wk.phaseIDs[:0]
}

// workerRun is the per-worker loop. One iteration is one cycle: refresh the
// active list, wake and collect the shard's submissions, pre-aggregate them
// (stage 1), rendezvous (stage 2 on the last arriver), then scatter results
// (stage 3).
func (e *engine) workerRun(w int) {
	wk := &e.shards[w]
	first := true
	for {
		if e.failed.Load() {
			e.wakeShardProcs(wk)
			return
		}
		g := e.barGen.Load()
		e.refreshActive(wk)
		if len(wk.active) == 0 && len(wk.sleep) == 0 {
			// The whole shard has exited; the resolver already retired this
			// worker from the barrier head count (markExited).
			return
		}
		if pending := len(wk.active); pending > 0 {
			// The countdown must be primed before the first gate opens: a
			// woken processor may submit immediately. Round 0 is special —
			// the countdown was primed by initShards and the processors
			// self-start, so the worker neither stores nor wakes.
			if !first {
				e.shardPend[w].v.Store(int64(pending))
				for _, id := range wk.active {
					e.gates[id] <- struct{}{}
				}
			}
			<-e.workerWake[w]
			if e.failed.Load() {
				e.wakeShardProcs(wk)
				return
			}
			// Move newly announced IdleN batches to the sleep heap: the
			// announcing submission is this round's opIdle, the processor
			// sleeps through the stretch and rejoins at round+n.
			keep := wk.active[:0]
			for _, id := range wk.active {
				if n := e.idleBatch[id].v.Load(); n != 0 {
					e.idleBatch[id].v.Store(0)
					wk.pushSleep(wk.round+int64(n), id)
				} else {
					keep = append(keep, id)
				}
			}
			wk.active = keep
		}
		// A round with no active processor skips the token wait entirely:
		// every owned live processor is mid-batch, their slots already hold
		// this cycle's opIdle, and the cycle costs this worker O(1).
		if e.fast {
			e.foldShard(wk)
		}
		// Worker rendezvous: the last arriver merges the shard aggregates
		// (fast path) or resolves serially over the active lists (general).
		// The head count is read before arriving: it cannot change until
		// this round resolves, which needs this arrival, whereas after the
		// arrival the last arriver may already have resolved the round and
		// lowered it for the next one (a retired shard), and a stale arrival
		// count matching the new head count would resolve a second time.
		expected := e.expected.Load()
		if e.arrived.Add(1) == expected {
			e.resolve()
		} else {
			e.await(g)
		}
		if e.failed.Load() {
			e.wakeShardProcs(wk)
			return
		}
		if e.fast {
			e.shardFinish(wk)
		}
		wk.round++
		first = false
	}
}
