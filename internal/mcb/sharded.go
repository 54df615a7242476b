package mcb

import "runtime"

// This file is the engine's cycle coordination, built for the p >> cores
// regime the paper's algorithms are stated in. Processor programs run on
// their own goroutines (they are arbitrary blocking func(Node) bodies), but
// the per-cycle coordination is delegated to M = min(GOMAXPROCS, p) workers,
// each owning a contiguous shard of p/M processors:
//
//   - A processor submits its cycle op by writing its slot, decrementing its
//     worker's outstanding-submission countdown, and parking on its private
//     gate channel. It never touches the shared barrier.
//   - Once its countdown drains, each worker moves newly announced IdleN
//     batches to its sleep heap and arrives at the shared arrived/expected
//     barrier, which counts workers, not processors. Processors replaying
//     IdleN batches sleep in a (wake-round, id) min-heap and cost nothing per
//     cycle, so idle-heavy phases (the §8 selection-filter shape) cost
//     O(active), not O(p).
//   - The last arriver runs resolve (engine.go), the serial processor-id-order
//     resolver, over the concatenated active lists of the live shards. It
//     writes every read result and commits channel registers and stats.
//   - After release, every worker wakes exactly the owned processors that owe
//     a fresh submission.
//
// The per-cycle cost model: one gate send + one countdown RMW per ACTIVE
// processor, an O(M) worker rendezvous, and an O(active + M) serial
// resolution with an O(writes) register clear and commit. See DESIGN.md
// "Engine internals".
//
// Memory ordering: a processor's slot write happens-before its worker's
// arrival via the countdown RMW chain and the wake token; every arrival
// happens-before the resolution via the arrived counter's RMW chain; the
// resolver's result and stats writes happen-before every worker's wake pass
// via the barrier generation bump (release) and each worker's acquire load
// in await; a worker's gate send orders them before its processors' reads.
// All edges are sync/atomic or channel operations, so the race detector
// checks them for real.

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

// shardWorker is the per-worker state: the contiguous range [lo, hi) of
// processor ids it owns and the active/sleeping split of those processors.
//
// Everything here is owned by the worker goroutine between barriers; the
// resolver (one of the workers) reads it only after every worker has arrived.
type shardWorker struct {
	lo, hi int
	round  int64 // index of the round currently being collected

	// active holds the owned ids that owe a fresh submission each cycle —
	// live and not inside an IdleN batch — in ascending order, so the
	// resolver visiting shards in order sees processors in id order. sleep
	// is a min-heap on (wake, id); wakes is the reactivation scratch.
	active []int32
	sleep  []sleeper
	wakes  []int32
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
	p := e.cfg.P
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
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > p {
			hi = p
		}
		n := hi - lo
		wk := shardWorker{
			lo: lo, hi: hi,
			active: make([]int32, n, n),
			sleep:  make([]sleeper, 0, n),
			wakes:  make([]int32, 0, n),
		}
		for i := range wk.active {
			wk.active[i] = int32(lo + i)
		}
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

// workerRun is the per-worker loop. One iteration is one cycle: refresh the
// active list, wake and collect the shard's submissions, then rendezvous
// (the last arriver resolves the cycle).
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
		//
		// Worker rendezvous: the last arriver resolves the cycle over the
		// active lists. The head count is read before arriving: it cannot
		// change until this round resolves, which needs this arrival,
		// whereas after the arrival the last arriver may already have
		// resolved the round and lowered it for the next one (a retired
		// shard), and a stale arrival count matching the new head count
		// would resolve a second time.
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
		wk.round++
		first = false
	}
}
