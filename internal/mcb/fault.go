package mcb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the deterministic fault-injection plane of the engine. The
// MCB model of the paper assumes perfectly reliable channels and processors;
// real broadcast media lose, garble and partition messages, and nodes die.
// A FaultPlan provokes those failures on purpose — reproducibly.
//
// Determinism guarantee: every injection decision is a pure function of
// (FaultPlan, cycle, processor, channel). Drop and corruption decisions are
// derived from a splitmix64-style hash of those coordinates and applied
// inside the single-threaded cycle resolver (processor-id order); crash-stops
// trigger on a processor's own cycle counter, which in a lock-step run equals
// the global cycle index. Goroutine scheduling therefore never influences
// which faults fire: replaying the same (Config, FaultPlan, programs) yields
// an identical Result, byte for byte.

// Outage marks a broadcast channel dead for a cycle range: every message
// written on Ch during [From, To) is lost (all readers observe silence).
// The writer is not notified — broadcast media give no transmit feedback.
type Outage struct {
	Ch   int   // channel index
	From int64 // first dead cycle (inclusive)
	To   int64 // first live cycle again (exclusive)
}

// ParseOutage parses "ch:from[:to]", the -outage flag of mcbsort, mcbselect
// and mcbtrace, into a scripted outage window on an MCB with k channels; an
// omitted to means the channel never heals.
func ParseOutage(s string, k int) (Outage, error) {
	o := Outage{To: 1 << 50}
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return o, fmt.Errorf("bad -outage %q: want ch:from[:to]", s)
	}
	vals := make([]int64, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil || v < 0 {
			return o, fmt.Errorf("bad -outage %q: %q is not a non-negative integer", s, part)
		}
		vals[i] = v
	}
	o.Ch, o.From = int(vals[0]), vals[1]
	if len(vals) == 3 {
		o.To = vals[2]
	}
	if o.Ch >= k {
		return o, fmt.Errorf("bad -outage %q: channel %d out of range [0, %d)", s, o.Ch, k)
	}
	if o.To <= o.From {
		return o, fmt.Errorf("bad -outage %q: empty window", s)
	}
	return o, nil
}

// Crash schedules a crash-stop: processor Proc completes exactly Cycle cycle
// operations and then stops silently — it issues no further operations, never
// writes again, and leaves the lock-step protocol as if it had exited.
// Cycle 0 crashes the processor before its first operation.
type Crash struct {
	Proc  int
	Cycle int64
}

// FaultPlan describes deterministic, seeded fault injection for one run.
// The zero value (and a nil plan) injects nothing.
type FaultPlan struct {
	// Seed drives the stochastic fault decisions (drops and corruptions).
	// The same (Seed, rates) always yields the same faults at the same
	// (cycle, processor, channel) coordinates.
	Seed uint64
	// DropRate is the probability, per message delivery (reader, channel,
	// cycle), that the reader observes silence instead of the message.
	// Deliveries are independent: one reader of a broadcast may lose it
	// while another receives it.
	DropRate float64
	// CorruptRate is the probability, per delivery, that the reader receives
	// the message with one payload bit flipped (a seeded bit of X, Y or Z).
	CorruptRate float64
	// Checksum guards every message with a per-message checksum: a corrupted
	// delivery is detected and read as silence (like a CRC-failed radio
	// frame) instead of delivering the garbled payload. Without it,
	// corruption is silent and only output verification can catch it.
	Checksum bool
	// Outages lists channel outage windows.
	Outages []Outage
	// Crashes lists scheduled processor crash-stops.
	Crashes []Crash
}

// active reports whether the plan can inject anything.
func (p *FaultPlan) active() bool {
	if p == nil {
		return false
	}
	return p.DropRate > 0 || p.CorruptRate > 0 || len(p.Outages) > 0 || len(p.Crashes) > 0
}

// Clone returns a deep copy of the plan (nil stays nil).
func (p *FaultPlan) Clone() *FaultPlan {
	if p == nil {
		return nil
	}
	c := *p
	c.Outages = append([]Outage(nil), p.Outages...)
	c.Crashes = append([]Crash(nil), p.Crashes...)
	return &c
}

// ForAttempt derives the plan a retry attempt runs under. Attempt 0 is the
// plan itself; later attempts reseed the stochastic faults (drops and
// corruptions strike elsewhere) while keeping the scripted Outages and
// Crashes — a scheduled hardware death does not heal because the computation
// restarted.
func (p *FaultPlan) ForAttempt(attempt int) *FaultPlan {
	if p == nil || attempt == 0 {
		return p
	}
	c := p.Clone()
	c.Seed = mix64(p.Seed ^ (0x9e3779b97f4a7c15 * uint64(attempt)))
	return c
}

// WithoutCrashes returns a copy of the plan with the crash entries for the
// given processors removed. The graceful-degradation retry uses it: the
// degraded attempt models re-running with the dead processors replaced by
// empty ones, so their scheduled crashes must not recur.
func (p *FaultPlan) WithoutCrashes(procs []int) *FaultPlan {
	if p == nil {
		return nil
	}
	dead := make(map[int]bool, len(procs))
	for _, id := range procs {
		dead[id] = true
	}
	c := p.Clone()
	kept := c.Crashes[:0]
	for _, cr := range c.Crashes {
		if !dead[cr.Proc] {
			kept = append(kept, cr)
		}
	}
	c.Crashes = kept
	return c
}

// WithoutOutages returns a copy of the plan with the outage windows for the
// given channels removed. The channel-degradation retry uses it: the degraded
// attempt runs on the surviving channels only, so the outages that killed the
// dropped channels must not be re-attributed to the survivors.
func (p *FaultPlan) WithoutOutages(chs []int) *FaultPlan {
	if p == nil {
		return nil
	}
	dead := make(map[int]bool, len(chs))
	for _, ch := range chs {
		dead[ch] = true
	}
	c := p.Clone()
	kept := c.Outages[:0]
	for _, o := range c.Outages {
		if !dead[o.Ch] {
			kept = append(kept, o)
		}
	}
	c.Outages = kept
	return c
}

// Shift returns the plan as seen by a run that starts off cycles into the
// original timeline: scripted windows and crash cycles move earlier by off
// (entries that have fully expired are dropped), and the stochastic seed is
// remixed so drop/corrupt decisions do not replay the prefix pattern. A
// resumed segment uses it so that "outage on cycles [40, 60)" still means
// cycles 40–60 of the attempt, not of each segment. off <= 0 returns the
// plan unchanged.
func (p *FaultPlan) Shift(off int64) *FaultPlan {
	if p == nil || off <= 0 {
		return p
	}
	c := p.Clone()
	c.Seed = mix64(p.Seed ^ uint64(off))
	kept := c.Outages[:0]
	for _, o := range c.Outages {
		o.From -= off
		o.To -= off
		if o.To <= 0 {
			continue // window fully in the past
		}
		if o.From < 0 {
			o.From = 0
		}
		kept = append(kept, o)
	}
	c.Outages = kept
	keptCr := c.Crashes[:0]
	for _, cr := range c.Crashes {
		cr.Cycle -= off
		if cr.Cycle < 0 {
			cr.Cycle = 0 // already due: crash before the segment's first op
		}
		keptCr = append(keptCr, cr)
	}
	c.Crashes = keptCr
	return c
}

// msgSum is the per-message checksum guarding payloads when
// FaultPlan.Checksum is set: FNV-1a over the tag and payload words. Any
// single-bit flip changes it, so injected corruption is always detected.
func msgSum(m Message) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mixByte := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	mixByte(m.Tag)
	for _, w := range [3]int64{m.X, m.Y, m.Z} {
		u := uint64(w)
		for i := 0; i < 8; i++ {
			mixByte(byte(u >> (8 * i)))
		}
	}
	return h
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Event-kind salts for the fault hash, so a drop decision and a corruption
// decision at the same coordinates are independent.
const (
	saltDrop    = 0xd509
	saltCorrupt = 0xc093
	saltBit     = 0xb17f
)

// roll returns a deterministic uniform [0, 1) for one (kind, cycle, a, b)
// coordinate under the plan's seed.
func (p *FaultPlan) roll(kind uint64, cycle int64, a, b int) float64 {
	h := mix64(p.Seed ^ kind)
	h = mix64(h ^ uint64(cycle))
	h = mix64(h ^ uint64(a))
	h = mix64(h ^ uint64(b))
	return float64(h>>11) / (1 << 53)
}

// outageAt reports whether channel ch is dead at the given cycle.
func (p *FaultPlan) outageAt(ch int, cycle int64) bool {
	if p == nil {
		return false
	}
	for _, o := range p.Outages {
		if o.Ch == ch && cycle >= o.From && cycle < o.To {
			return true
		}
	}
	return false
}

// dropAt reports whether the delivery to reader on ch at cycle is dropped.
func (p *FaultPlan) dropAt(cycle int64, reader, ch int) bool {
	if p == nil || p.DropRate <= 0 {
		return false
	}
	return p.roll(saltDrop, cycle, reader, ch) < p.DropRate
}

// corruptAt reports whether the delivery to reader on ch at cycle is
// garbled and, if so, returns the corrupted copy (one payload bit flipped;
// the bit position is itself seeded).
func (p *FaultPlan) corruptAt(cycle int64, reader, ch int, m Message) (Message, bool) {
	if p == nil || p.CorruptRate <= 0 {
		return m, false
	}
	if p.roll(saltCorrupt, cycle, reader, ch) >= p.CorruptRate {
		return m, false
	}
	h := mix64(p.Seed ^ saltBit)
	h = mix64(h ^ uint64(cycle))
	h = mix64(h ^ uint64(reader))
	h = mix64(h ^ uint64(ch))
	bit := int64(1) << (h >> 2 % 64)
	switch h % 3 {
	case 0:
		m.X ^= bit
	case 1:
		m.Y ^= bit
	default:
		m.Z ^= bit
	}
	return m, true
}

// CrashEvent records one injected crash-stop.
type CrashEvent struct {
	Proc  int   `json:"proc"`
	Cycle int64 `json:"cycle"` // cycle operations completed before stopping
}

// FaultStats counts the faults the engine injected during a run. All
// counters reflect fully resolved cycles only, like the rest of Stats.
type FaultStats struct {
	// Drops is the number of message deliveries suppressed (reader saw
	// silence although the channel was written).
	Drops int64 `json:"drops,omitempty"`
	// Corruptions is the number of deliveries that handed the reader a
	// garbled payload (checksum off).
	Corruptions int64 `json:"corruptions,omitempty"`
	// Detected is the number of corrupted deliveries caught by the
	// per-message checksum and read as silence instead.
	Detected int64 `json:"detected,omitempty"`
	// OutageLosses is the number of messages written onto a dead channel.
	OutageLosses int64 `json:"outage_losses,omitempty"`
	// OutagePerChannel breaks OutageLosses down by channel index; nil when
	// no outage loss occurred. The degradation retry uses it to attribute a
	// failure to specific channels.
	OutagePerChannel []int64 `json:"outage_per_channel,omitempty"`
	// Crashes lists the crash-stops that fired, in processor order.
	Crashes []CrashEvent `json:"crashes,omitempty"`
}

// Total returns the total number of injected fault events.
func (f *FaultStats) Total() int64 {
	if f == nil {
		return 0
	}
	return f.Drops + f.Corruptions + f.Detected + f.OutageLosses + int64(len(f.Crashes))
}

// add folds t into f.
func (f *FaultStats) add(t *FaultStats) {
	f.Drops += t.Drops
	f.Corruptions += t.Corruptions
	f.Detected += t.Detected
	f.OutageLosses += t.OutageLosses
	if t.OutagePerChannel != nil {
		if len(f.OutagePerChannel) < len(t.OutagePerChannel) {
			grown := make([]int64, len(t.OutagePerChannel))
			copy(grown, f.OutagePerChannel)
			f.OutagePerChannel = grown
		}
		for ch, n := range t.OutagePerChannel {
			f.OutagePerChannel[ch] += n
		}
	}
	f.Crashes = append(f.Crashes, t.Crashes...)
}

func (f *FaultStats) clone() FaultStats {
	c := *f
	c.OutagePerChannel = append([]int64(nil), f.OutagePerChannel...)
	c.Crashes = append([]CrashEvent(nil), f.Crashes...)
	return c
}

// OutageSuspects attributes a failure at failCycle to channels: a channel is
// a suspect when it actually lost messages during the run (OutagePerChannel)
// and the plan scripts an outage window for it that is still open at the
// failing cycle — a window that closed long before the failure cannot be
// what is defeating retries. Returns the suspect channels in ascending
// order, or nil when the failure is not attributable to channel loss.
func OutageSuspects(plan *FaultPlan, stats *FaultStats, failCycle int64) []int {
	if plan == nil || stats == nil || len(stats.OutagePerChannel) == 0 {
		return nil
	}
	var out []int
	for ch, n := range stats.OutagePerChannel {
		if n <= 0 {
			continue
		}
		for _, o := range plan.Outages {
			if o.Ch == ch && o.To > failCycle {
				out = append(out, ch)
				break
			}
		}
	}
	return out
}

// faultState is the engine-side runtime of a FaultPlan.
type faultState struct {
	plan    *FaultPlan
	crashAt []int64 // per processor: cycles to complete before crashing, -1 = never

	mu      sync.Mutex
	crashed []CrashEvent // recorded by crashing processor goroutines
}

func newFaultState(plan *FaultPlan, p int) *faultState {
	if !plan.active() {
		return nil
	}
	fs := &faultState{plan: plan, crashAt: make([]int64, p)}
	for i := range fs.crashAt {
		fs.crashAt[i] = -1
	}
	for _, c := range plan.Crashes {
		if c.Proc < 0 || c.Proc >= p {
			continue
		}
		if fs.crashAt[c.Proc] < 0 || c.Cycle < fs.crashAt[c.Proc] {
			fs.crashAt[c.Proc] = c.Cycle
		}
	}
	return fs
}

// crashCycle returns the scheduled crash cycle for proc id, or -1.
func (fs *faultState) crashCycle(id int) int64 {
	if fs == nil {
		return -1
	}
	return fs.crashAt[id]
}

// recordCrash notes that proc id crash-stopped after completing the given
// number of cycles. Safe for concurrent use (crashes fire on processor
// goroutines).
func (fs *faultState) recordCrash(id int, cycle int64) {
	fs.mu.Lock()
	fs.crashed = append(fs.crashed, CrashEvent{Proc: id, Cycle: cycle})
	fs.mu.Unlock()
}

// crashes returns the recorded crash events in processor order, and the
// earliest crash cycle. Call only after every processor goroutine stopped.
func (fs *faultState) crashes() ([]CrashEvent, int64) {
	if fs == nil {
		return nil, 0
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	evs := append([]CrashEvent(nil), fs.crashed...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Proc < evs[j].Proc })
	first := int64(0)
	for i, ev := range evs {
		if i == 0 || ev.Cycle < first {
			first = ev.Cycle
		}
	}
	return evs, first
}

func (fs *faultState) String() string {
	if fs == nil {
		return "faults: none"
	}
	return fmt.Sprintf("faults: seed=%d drop=%g corrupt=%g checksum=%v outages=%d crashes=%d",
		fs.plan.Seed, fs.plan.DropRate, fs.plan.CorruptRate, fs.plan.Checksum, len(fs.plan.Outages), len(fs.plan.Crashes))
}
