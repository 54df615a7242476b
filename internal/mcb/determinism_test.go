package mcb

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mcbnet/internal/trace"
)

// Determinism regressions: the fold/merge fast path (no faults, no
// recorder) and the serial general resolver must be observably identical,
// and every run must be schedule-independent — identical seeds and fault
// plans produce byte-identical Report JSON across GOMAXPROCS settings (which
// change the shard-worker count and layout) and repeated runs.

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

// reportJSON runs the workload and renders the (Result, error)-derived
// Report as canonical bytes. Errors are folded into the Extra field so a
// faulted run (e.g. CrashError) still yields comparable output.
func reportJSON(t *testing.T, cfg Config, p, k, cycles int) []byte {
	t.Helper()
	res, err := RunUniform(cfg, detWorkload(p, k, cycles))
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

// detConfig is the determinism tests' run config. general attaches a cycle
// recorder, which forces resolveGeneral, the serial reference resolver (an
// active fault plan forces it too). The Report does not include the
// recorder's events, so a small ring that overwrites itself is fine here.
func detConfig(p, k int, plan *FaultPlan, general bool) Config {
	c := Config{P: p, K: k, Faults: plan, StallTimeout: time.Minute}
	if general {
		c.Recorder = trace.New(p, k, 64)
	}
	return c
}

// TestCrossPathDeterminism holds the fast path (per-worker fold, serial
// merge, per-worker scatter) and the general path (one serial scan) to
// byte-identical Report JSON over network shapes whose shard layouts differ
// — a single processor, fewer processors than workers, uneven shards — at
// one and at four workers.
func TestCrossPathDeterminism(t *testing.T) {
	const cycles = 96
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 4} {
		runtime.GOMAXPROCS(gmp)
		for _, shape := range [][2]int{{1, 1}, {2, 1}, {9, 3}, {16, 4}, {33, 5}} {
			p, k := shape[0], shape[1]
			tag := fmt.Sprintf("GOMAXPROCS=%d p=%d k=%d", gmp, p, k)
			fast := reportJSON(t, detConfig(p, k, nil, false), p, k, cycles)
			general := reportJSON(t, detConfig(p, k, nil, true), p, k, cycles)
			if !bytes.Equal(general, fast) {
				t.Fatalf("%s: general-path report differs from fast path:\n%s\n--- want ---\n%s", tag, general, fast)
			}
		}
	}
}

// TestCrossGOMAXPROCSDeterminism holds the fast path, the general path and
// a faulted run (drops, corruption, outage window, crash-stop) to
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
	var fastRef, faultRef []byte
	for _, gmp := range []int{1, 2, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(gmp)
		for rep := 0; rep < 2; rep++ {
			tag := fmt.Sprintf("GOMAXPROCS=%d rep=%d", gmp, rep)

			fast := reportJSON(t, detConfig(p, k, nil, false), p, k, cycles)
			if fastRef == nil {
				fastRef = fast
			}
			if !bytes.Equal(fast, fastRef) {
				t.Fatalf("%s: fast-path report diverged:\n%s\n--- want ---\n%s", tag, fast, fastRef)
			}

			general := reportJSON(t, detConfig(p, k, nil, true), p, k, cycles)
			if !bytes.Equal(general, fastRef) {
				t.Fatalf("%s: general-path report differs:\n%s\n--- want ---\n%s", tag, general, fastRef)
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
	if bytes.Equal(fastRef, faultRef) {
		t.Fatal("fault plan injected nothing (fast and faulted reports identical); workload lost its fault coverage")
	}
}

// TestFastPathSelection pins down which configurations take which resolver:
// an inactive (zero or nil) fault plan must not force the general path, and
// an attached cycle recorder must.
func TestFastPathSelection(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		fast bool
	}{
		{"default", Config{P: 2, K: 1}, true},
		{"zero-plan", Config{P: 2, K: 1, Faults: &FaultPlan{}}, true},
		{"recorder", Config{P: 2, K: 1, Recorder: trace.New(2, 1, 64)}, false},
		{"drops", Config{P: 2, K: 1, Faults: &FaultPlan{DropRate: 0.1}}, false},
		{"outage", Config{P: 2, K: 1, Faults: &FaultPlan{Outages: []Outage{{Ch: 0, From: 0, To: 1}}}}, false},
	}
	for _, c := range cases {
		got := fastEligible(c.cfg, newFaultState(c.cfg.Faults, c.cfg.P))
		if got != c.fast {
			t.Errorf("%s: fast-path selection = %v, want %v", c.name, got, c.fast)
		}
	}
}
