package mcb

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mcbnet/internal/trace"
)

// Determinism regressions: what rides along with a run (a cycle recorder, a
// fault plan that never fires) must not change its Report, and every run
// must be schedule-independent — identical seeds and fault plans produce
// byte-identical Report JSON across GOMAXPROCS settings (which change the
// shard-worker count and layout) and repeated runs.

// detWorkload is a deterministic mixed workload: every cycle c of the dense
// block has k collision-free writers (processor (c+j) mod p writes channel
// j), everyone else reads or idles, phase markers land every 16 cycles, and
// payloads vary so MaxAbs moves. A sparse coda follows — one writer per
// segment while everyone else sleeps through an IdleN batch spanning the
// whole segment — so the workers' sleeper bookkeeping (wake rounds,
// phase markers attached to batch announcements, faults striking mid-batch)
// is held to the same byte-identity as the dense traffic. It never branches
// on read payloads, so fault injection cannot change the traffic pattern —
// only the observed deliveries.
func detWorkload(p, k, cycles int) func(Node) {
	return func(pr Node) {
		id := pr.ID()
		for c := 0; c < cycles; c++ {
			if c%16 == 0 {
				pr.Phase(fmt.Sprintf("seg%d", c/16))
			}
			j := id - c
			for j < 0 {
				j += p
			}
			j %= p
			switch {
			case j < k:
				// This processor is the writer of channel j this cycle.
				pr.WriteRead(j, MsgX(uint8(j), int64(c*1000+id)), (c+id)%k)
			case (c+id)%3 == 0:
				pr.Idle()
			default:
				pr.Read((c + id) % k)
			}
		}
		const segs, segLen = 4, 8
		for s := 0; s < segs; s++ {
			pr.Phase(fmt.Sprintf("sparse%d", s))
			if s%p == id {
				for i := 0; i < segLen; i++ {
					pr.WriteRead(0, MsgX(2, int64(s*segLen+i)), 0)
				}
			} else {
				pr.IdleN(segLen)
			}
		}
		pr.AccountAux(int64(id + 1))
		pr.IdleN(id % 4) // ragged tail exercises exit + IdleN interplay
	}
}

// abortingWorkload collides processors 0 and 1 on channel 0 at cycle 1
// while processor 3 carries a new phase marker. A cycle that aborts still
// registers every marker its active processors carried, so the partial
// Report lists the zero-cycle phase "late" after "a".
func abortingWorkload(pr Node) {
	pr.Phase("a")
	pr.Idle()
	switch id := pr.ID(); id {
	case 0, 1:
		pr.Write(0, MsgX(1, int64(id)))
	case 3:
		pr.Phase("late")
		pr.Read(1)
	default:
		pr.Idle()
	}
	pr.IdleN(4)
}

// reportJSON runs detWorkload and renders its Report as canonical bytes (see
// runReportJSON).
func reportJSON(t *testing.T, cfg Config, p, k, cycles int) []byte {
	t.Helper()
	return runReportJSON(t, cfg, detWorkload(p, k, cycles))
}

// runReportJSON runs prog on every processor and renders the (Result,
// error)-derived Report as canonical bytes. Errors are folded into the Extra
// field so a failed run (e.g. CrashError) still yields comparable output.
func runReportJSON(t *testing.T, cfg Config, prog func(Node)) []byte {
	t.Helper()
	res, err := RunUniform(cfg, prog)
	if res == nil {
		t.Fatalf("run returned nil result (err=%v)", err)
	}
	rep := NewReport(cfg, &res.Stats)
	if err != nil {
		rep.Extra = map[string]any{"error": err.Error()}
	}
	b, jerr := rep.JSON()
	if jerr != nil {
		t.Fatal(jerr)
	}
	return b
}

// detConfig is the determinism tests' run config; recorded attaches a cycle
// recorder. The Report does not include the recorder's events, so a small
// ring that overwrites itself is fine here.
func detConfig(p, k int, plan *FaultPlan, recorded bool) Config {
	c := Config{P: p, K: k, Faults: plan, StallTimeout: time.Minute}
	if recorded {
		c.Recorder = trace.New(p, k, 64)
	}
	return c
}

// TestCrossPathDeterminism holds a plain run, a run with a cycle recorder
// attached and a run with a fault plan that never fires to byte-identical
// Report JSON, at one, two and four workers, over network shapes whose shard
// layouts differ — a single processor, fewer processors than workers, uneven
// shards — and over a cycle that aborts on a collision while a higher
// processor carries a new phase marker.
func TestCrossPathDeterminism(t *testing.T) {
	const cycles = 96
	type input struct {
		p, k int
		prog func(Node)
	}
	var inputs []input
	for _, shape := range [][2]int{{1, 1}, {2, 1}, {9, 3}, {16, 4}, {33, 5}} {
		p, k := shape[0], shape[1]
		inputs = append(inputs, input{p, k, detWorkload(p, k, cycles)})
	}
	inputs = append(inputs, input{4, 2, abortingWorkload})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(gmp)
		for _, in := range inputs {
			tag := fmt.Sprintf("GOMAXPROCS=%d p=%d k=%d", gmp, in.p, in.k)
			inert := &FaultPlan{Outages: []Outage{{Ch: in.k - 1, From: 1 << 40, To: 1<<40 + 1}}}
			plain := runReportJSON(t, detConfig(in.p, in.k, nil, false), in.prog)
			recorded := runReportJSON(t, detConfig(in.p, in.k, nil, true), in.prog)
			planned := runReportJSON(t, detConfig(in.p, in.k, inert, false), in.prog)
			if !bytes.Equal(recorded, plain) {
				t.Fatalf("%s: recorded report differs from the plain run:\n%s\n--- want ---\n%s", tag, recorded, plain)
			}
			if !bytes.Equal(planned, plain) {
				t.Fatalf("%s: report under an inert plan differs from the plain run:\n%s\n--- want ---\n%s", tag, planned, plain)
			}
		}
	}
	// The aborting input's partial Report must carry both markers.
	res, err := RunUniform(detConfig(4, 2, nil, false), abortingWorkload)
	var ce *CollisionError
	if !errors.As(err, &ce) || ce.Cycle != 1 || ce.ProcA != 0 || ce.ProcB != 1 {
		t.Fatalf("aborting input: got %v, want a collision of processors 0 and 1 at cycle 1", err)
	}
	if late := res.Stats.PhaseByName("late"); late == nil || late.Cycles != 0 || len(res.Stats.Phases) != 2 {
		t.Fatalf("aborting input: partial Report phases = %+v, want a then a zero-cycle late", res.Stats.Phases)
	}
}

// TestCrossGOMAXPROCSDeterminism holds a plain run, a recorded run and a
// faulted run (drops, corruption, outage window, crash-stop) to
// byte-identical Report JSON across GOMAXPROCS in {1, 2, 4, NumCPU} — one
// worker, one per core, oversubscribed — and repeated runs.
func TestCrossGOMAXPROCSDeterminism(t *testing.T) {
	const p, k, cycles = 9, 3, 96
	plan := &FaultPlan{
		Seed:        42,
		DropRate:    0.05,
		CorruptRate: 0.05,
		Checksum:    true,
		Outages:     []Outage{{Ch: 1, From: 20, To: 40}},
		// Proc 7 crashes mid-dense-block; proc 5 crashes as a sparse-coda
		// sleeper, mid-IdleN-batch.
		Crashes: []Crash{{Proc: 7, Cycle: 60}, {Proc: 5, Cycle: 110}},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var plainRef, faultRef []byte
	for _, gmp := range []int{1, 2, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(gmp)
		for rep := 0; rep < 2; rep++ {
			tag := fmt.Sprintf("GOMAXPROCS=%d rep=%d", gmp, rep)

			plain := reportJSON(t, detConfig(p, k, nil, false), p, k, cycles)
			if plainRef == nil {
				plainRef = plain
			}
			if !bytes.Equal(plain, plainRef) {
				t.Fatalf("%s: plain report diverged:\n%s\n--- want ---\n%s", tag, plain, plainRef)
			}

			recorded := reportJSON(t, detConfig(p, k, nil, true), p, k, cycles)
			if !bytes.Equal(recorded, plainRef) {
				t.Fatalf("%s: recorded report differs:\n%s\n--- want ---\n%s", tag, recorded, plainRef)
			}

			faulty := reportJSON(t, detConfig(p, k, plan.Clone(), false), p, k, cycles)
			if faultRef == nil {
				faultRef = faulty
			}
			if !bytes.Equal(faulty, faultRef) {
				t.Fatalf("%s: faulted report diverged:\n%s\n--- want ---\n%s", tag, faulty, faultRef)
			}
		}
	}
	if bytes.Equal(plainRef, faultRef) {
		t.Fatal("fault plan injected nothing (plain and faulted reports identical); workload lost its fault coverage")
	}
}
