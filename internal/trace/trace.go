// Package trace is the engine's structured cycle-tracing subsystem: a
// near-zero-overhead recorder of fixed-size binary events plus exporters
// that turn a captured run into JSONL, Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing) and per-phase channel-utilization summaries.
//
// The MCB model of the paper is defined cycle-by-cycle — who writes, who
// reads, which channels sit silent — and this package makes that structure
// observable mechanically. A Recorder holds one preallocated ring buffer per
// processor; the engine's cycle resolver appends one Event per observable
// fact (write, read, silence, idle, collision, fault, phase switch). Events
// are 32-byte value types, appends never allocate, and a full ring silently
// overwrites its oldest events (the drop count is retained), so steady-state
// tracing is O(1) amortized per event.
//
// Concurrency: a Recorder is intentionally NOT thread-safe. The engine's
// cycle resolver runs on exactly one goroutine per cycle and consecutive
// cycles are separated by the lock-step barrier, so resolver-side appends
// are already serialized; wrapping them in locks would tax the hot path for
// no benefit. Export only after the run has returned.
package trace

import "sort"

// Kind identifies what an Event records. The zero value is invalid so that
// an accidentally zeroed event is detectable.
type Kind uint8

const (
	// KindWrite: processor Proc broadcast on channel Ch; Arg is the
	// message's X payload field (the primary datum in every protocol here).
	KindWrite Kind = iota + 1
	// KindRead: processor Proc read channel Ch and observed a message;
	// Arg is the delivered X payload (post-fault-injection).
	KindRead
	// KindSilence: processor Proc read channel Ch and observed silence
	// (nothing written, an outage, or a dropped/discarded delivery).
	KindSilence
	// KindIdle: processor Proc spent the cycle without touching a channel.
	KindIdle
	// KindCollision: processor Proc wrote channel Ch already claimed by
	// processor Arg this cycle — the model's "computation fails".
	KindCollision
	// KindFault: the fault plane intervened; Arg is a Fault* code.
	KindFault
	// KindPhase: processor Proc's phase marker switched the active
	// accounting phase to Phase.
	KindPhase
)

// kindNames maps Kind to its stable wire name (JSONL, Perfetto).
var kindNames = [...]string{
	KindWrite:     "write",
	KindRead:      "read",
	KindSilence:   "silence",
	KindIdle:      "idle",
	KindCollision: "collision",
	KindFault:     "fault",
	KindPhase:     "phase",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "invalid"
}

// parseKind inverts Kind.String; returns 0 for unknown names.
func parseKind(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return Kind(k)
		}
	}
	return 0
}

// Fault codes carried in Event.Arg when Kind == KindFault.
const (
	// FaultDrop: the delivery to reader Proc on Ch was suppressed.
	FaultDrop int64 = iota + 1
	// FaultCorrupt: reader Proc received a garbled payload on Ch.
	FaultCorrupt
	// FaultDetected: a corrupted delivery was caught by the checksum and
	// discarded; reader Proc observed silence.
	FaultDetected
	// FaultOutage: processor Proc's broadcast on Ch fell into an outage
	// window (all readers observed silence).
	FaultOutage
	// FaultCrash: processor Proc crash-stopped after completing Cycle
	// cycle operations.
	FaultCrash
)

// faultNames maps Fault* codes to their stable wire names.
var faultNames = [...]string{
	FaultDrop:     "drop",
	FaultCorrupt:  "corrupt",
	FaultDetected: "corrupt-detected",
	FaultOutage:   "outage",
	FaultCrash:    "crash",
}

// FaultName returns the stable name of a Fault* code ("fault" for unknown).
func FaultName(code int64) string {
	if code > 0 && code < int64(len(faultNames)) {
		return faultNames[code]
	}
	return "fault"
}

// Event is one recorded fact, 32 bytes, no pointers. Field meaning varies
// slightly with Kind (see the Kind constants); Phase is the id of the
// accounting phase active when the event was recorded, -1 before the first
// phase marker. Ch is -1 for events without a channel (idle, phase, crash).
type Event struct {
	Cycle int64
	Arg   int64
	Proc  int32
	Ch    int32
	Phase int32
	Kind  Kind
	_     [3]byte
}

// ring is one processor's event buffer: a preallocated circular store with
// a monotone append counter. When n exceeds the capacity the oldest events
// are overwritten; n-cap(buf) of them have been dropped.
type ring struct {
	buf []Event
	n   uint64
}

func (r *ring) append(e Event) {
	r.buf[r.n%uint64(len(r.buf))] = e
	r.n++
}

// Recorder collects the events of one (or several consecutive) engine runs.
// Construct with New; pass to mcb.Config.Recorder; export afterwards.
type Recorder struct {
	procs    int
	channels int
	rings    []ring
	phases   []string
	phaseIdx map[string]int32
	// base is added to every recorded cycle, and end is one past the
	// highest cycle recorded so far; StartRun moves base to end.
	base, end int64
	// runs lists the engine runs started on the recorder, in run order.
	runs []run
}

// run is one engine run's place in the recorder: its first (shifted) cycle
// and the channel count of its network.
type run struct {
	start int64
	k     int
}

// New returns a Recorder for a network of procs processors and channels
// broadcast channels, with room for eventsPerProc events in each
// processor's ring (values below 64 are raised to 64). All buffers are
// allocated here; recording never allocates.
func New(procs, channels, eventsPerProc int) *Recorder {
	if procs < 1 {
		procs = 1
	}
	if channels < 1 {
		channels = 1
	}
	if eventsPerProc < 64 {
		eventsPerProc = 64
	}
	r := &Recorder{
		procs:    procs,
		channels: channels,
		rings:    make([]ring, procs),
		phaseIdx: make(map[string]int32),
	}
	for i := range r.rings {
		r.rings[i].buf = make([]Event, eventsPerProc)
	}
	return r
}

// Procs returns the processor count the recorder was sized for.
func (r *Recorder) Procs() int { return r.procs }

// Channels returns the channel count the recorder was built for.
func (r *Recorder) Channels() int { return r.channels }

// PhaseID interns a phase name and returns its stable id (dense, in
// first-seen order). Called by the engine on phase switches only (cold).
func (r *Recorder) PhaseID(name string) int32 {
	if id, ok := r.phaseIdx[name]; ok {
		return id
	}
	id := int32(len(r.phases))
	r.phases = append(r.phases, name)
	r.phaseIdx[name] = id
	return id
}

// Phases returns a copy of the interned phase-name table, indexed by id.
func (r *Recorder) Phases() []string {
	return append([]string(nil), r.phases...)
}

// StartRun begins an engine run on k channels, whose cycles count from 0:
// they are recorded after every cycle recorded so far. Runs that share a
// recorder (retry attempts, the segments of a recovered run) so occupy
// consecutive cycle ranges in run order; a run whose channels were degraded
// may have k below Channels. The engine calls it once per run.
func (r *Recorder) StartRun(k int) {
	r.base = r.end
	r.runs = append(r.runs, run{start: r.base, k: k})
}

// Record appends one event to the ring of e.Proc, its cycle shifted past
// the earlier runs (see StartRun). Allocation-free; the oldest event of a
// full ring is overwritten. e.Proc must be in [0, Procs).
func (r *Recorder) Record(e Event) {
	e.Cycle += r.base
	if e.Cycle >= r.end {
		r.end = e.Cycle + 1
	}
	r.rings[e.Proc].append(e)
}

// Total returns the number of events recorded (including overwritten ones).
func (r *Recorder) Total() int64 {
	var n int64
	for i := range r.rings {
		n += int64(r.rings[i].n)
	}
	return n
}

// Dropped returns the number of events lost to ring overwrites. A non-zero
// value means the rings were sized below the run length; the retained
// events are the most recent per processor.
func (r *Recorder) Dropped() int64 {
	var n int64
	for i := range r.rings {
		if c := uint64(len(r.rings[i].buf)); r.rings[i].n > c {
			n += int64(r.rings[i].n - c)
		}
	}
	return n
}

// Reset clears all rings, the phase table and the runs so the
// recorder can be reused for an unrelated run. The buffers themselves are
// retained.
func (r *Recorder) Reset() {
	for i := range r.rings {
		r.rings[i].n = 0
	}
	r.base, r.end = 0, 0
	r.runs = r.runs[:0]
	r.phases = r.phases[:0]
	for k := range r.phaseIdx {
		delete(r.phaseIdx, k)
	}
}

// Events returns a merged snapshot of all retained events in the canonical
// order: by cycle, then processor id, then per-processor record order. The
// order is a pure function of the recorded events, so deterministic runs
// export deterministic traces.
func (r *Recorder) Events() []Event {
	type seqEvent struct {
		e   Event
		seq uint64
	}
	var all []seqEvent
	for i := range r.rings {
		rg := &r.rings[i]
		c := uint64(len(rg.buf))
		start := uint64(0)
		if rg.n > c {
			start = rg.n - c
		}
		for s := start; s < rg.n; s++ {
			all = append(all, seqEvent{e: rg.buf[s%c], seq: s})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.e.Cycle != b.e.Cycle {
			return a.e.Cycle < b.e.Cycle
		}
		if a.e.Proc != b.e.Proc {
			return a.e.Proc < b.e.Proc
		}
		return a.seq < b.seq
	})
	out := make([]Event, len(all))
	for i := range all {
		out[i] = all[i].e
	}
	return out
}
