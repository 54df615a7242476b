package mcb

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mcbnet/internal/trace"
)

// Engine-side regression nets for the cycle recorder: trace determinism
// across schedules and resolver paths, lossless JSONL round-trips, and
// event/Stats consistency. These mirror TestCrossPathDeterminism, which
// holds Report JSON to the same standard.

// traceJSONL runs detWorkload under cfg with a fresh recorder attached and
// returns the exported JSONL bytes plus the run's stats.
func traceJSONL(t *testing.T, cfg Config, p, k, cycles int) ([]byte, Stats) {
	t.Helper()
	rec := trace.New(p, k, 4*cycles)
	cfg.Recorder = rec
	res, err := RunUniform(cfg, detWorkload(p, k, cycles))
	if res == nil {
		t.Fatalf("run returned nil result (err=%v)", err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring overwrote %d events; size the test recorder up", rec.Dropped())
	}
	return buf.Bytes(), res.Stats
}

// TestTraceDeterminism holds recorded traces to byte-identical JSONL across
// GOMAXPROCS settings and repeated runs, for a recorder on an otherwise
// fast-eligible run and a recorder on a faulted run (drops, corruption,
// outage, crash-stop).
func TestTraceDeterminism(t *testing.T) {
	const p, k, cycles = 9, 3, 96
	plan := &FaultPlan{
		Seed:        42,
		DropRate:    0.05,
		CorruptRate: 0.05,
		Checksum:    true,
		Outages:     []Outage{{Ch: 1, From: 20, To: 40}},
		Crashes:     []Crash{{Proc: 7, Cycle: 60}},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var plainRef, faultRef []byte
	for _, gmp := range []int{1, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(gmp)
		for rep := 0; rep < 2; rep++ {
			tag := fmt.Sprintf("GOMAXPROCS=%d rep=%d", gmp, rep)

			plain, _ := traceJSONL(t, detConfig(p, k, nil, false), p, k, cycles)
			if plainRef == nil {
				plainRef = plain
			}
			if !bytes.Equal(plain, plainRef) {
				t.Fatalf("%s: recorded trace diverged from reference", tag)
			}

			faulty, _ := traceJSONL(t, detConfig(p, k, plan.Clone(), false), p, k, cycles)
			if faultRef == nil {
				faultRef = faulty
			}
			if !bytes.Equal(faulty, faultRef) {
				t.Fatalf("%s: faulted trace diverged from reference", tag)
			}
		}
	}
	if bytes.Equal(plainRef, faultRef) {
		t.Fatal("fault plan left no mark on the trace; fault coverage lost")
	}
	// The scheduled crash-stop (proc 7 after 60 cycles) must appear as a
	// phase-less crash fault event sorted into its cycle.
	crashLine := fmt.Sprintf(`{"cycle":60,"kind":"fault","proc":7,"ch":-1,"phase":"","arg":%d}`, trace.FaultCrash)
	if !strings.Contains(string(faultRef), crashLine) {
		t.Fatalf("faulted trace lacks the crash event %s", crashLine)
	}
}

// TestTraceEngineRoundTrip is the engine-level golden round-trip: a recorded
// run exported to JSONL, re-parsed and re-exported must be byte-identical,
// and the event stream must agree with the engine's own Stats.
func TestTraceEngineRoundTrip(t *testing.T) {
	const p, k, cycles = 8, 2, 64
	first, stats := traceJSONL(t, detConfig(p, k, nil, false), p, k, cycles)
	events, phases, err := trace.ParseJSONL(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := trace.WriteJSONL(&second, events, phases); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second.Bytes()) {
		t.Fatal("re-export of a parsed engine trace is not byte-identical")
	}

	var writes int64
	perProc := make([]int64, p)
	for _, e := range events {
		if e.Kind == trace.KindWrite {
			writes++
			perProc[e.Proc]++
		}
	}
	if writes != stats.Messages {
		t.Fatalf("trace carries %d writes, Stats.Messages = %d", writes, stats.Messages)
	}
	for i, n := range perProc {
		if n != stats.PerProc[i] {
			t.Fatalf("proc %d: %d trace writes, Stats.PerProc = %d", i, n, stats.PerProc[i])
		}
	}
	// Per-phase summary cycles must match the engine's phase accounting.
	sums := trace.Summarize(events, phases, k)
	byName := map[string]trace.PhaseSummary{}
	for _, s := range sums {
		byName[s.Phase] = s
	}
	for _, ph := range stats.Phases {
		s, ok := byName[ph.Name]
		if !ok {
			t.Fatalf("phase %q missing from trace summary", ph.Name)
		}
		if s.Cycles != ph.Cycles || s.Writes != ph.Messages {
			t.Fatalf("phase %q: summary cycles/writes = %d/%d, Stats = %d/%d",
				ph.Name, s.Cycles, s.Writes, ph.Cycles, ph.Messages)
		}
	}
}

// TestTraceCollisionEvent: a collision-freedom violation must land in the
// trace as a collision event naming both writers, alongside the engine's
// CollisionError.
func TestTraceCollisionEvent(t *testing.T) {
	rec := trace.New(2, 1, 64)
	cfg := Config{P: 2, K: 1, Recorder: rec, StallTimeout: time.Minute}
	_, err := RunUniform(cfg, func(pr Node) {
		pr.Write(0, MsgX(1, int64(pr.ID())))
	})
	if err == nil {
		t.Fatal("colliding program did not fail")
	}
	var found bool
	for _, e := range rec.Events() {
		if e.Kind == trace.KindCollision && e.Ch == 0 && e.Proc == 1 && e.Arg == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no collision event recorded; events: %+v", rec.Events())
	}
}
