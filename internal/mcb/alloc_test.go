package mcb

import (
	"runtime"
	"testing"
	"time"

	"mcbnet/internal/trace"
)

// Steady-state allocation regression: a cycle with tracing off, no fault
// plan and no pending phase markers must not allocate at all, and phase
// markers must cost a bounded constant. Measured as the marginal allocation
// count between a short and a long run of the same workload, so one-time
// setup (engine, goroutines, Proc handles) cancels out.

// allocsForRun returns the average allocations of one engine run of the
// given cycle count, with markerEvery > 0 adding a coalescing phase marker
// on processor 0 every markerEvery cycles, and rec (optional, shared across
// runs) attaching the cycle recorder.
func allocsForRun(t *testing.T, p, k, cycles, markerEvery int, rec *trace.Recorder) float64 {
	t.Helper()
	return testing.AllocsPerRun(4, steadyRun(t, p, k, cycles, markerEvery, rec))
}

// steadyRun returns one run of the steady-state workload measured by
// allocsForRun: the first k processors WriteRead their own channel every
// cycle, the rest read one.
func steadyRun(t *testing.T, p, k, cycles, markerEvery int, rec *trace.Recorder) func() {
	t.Helper()
	cfg := Config{P: p, K: k, StallTimeout: time.Minute, Recorder: rec}
	return func() {
		res, err := RunUniform(cfg, func(pr Node) {
			id := pr.ID()
			if id < k {
				m := MsgX(1, int64(id))
				for i := 0; i < cycles; i++ {
					if markerEvery > 0 && id == 0 && i%markerEvery == 0 {
						pr.Phase("steady")
					}
					pr.WriteRead(id, m, id)
				}
				return
			}
			c := id % k
			for i := 0; i < cycles; i++ {
				pr.Read(c)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Cycles != int64(cycles) {
			t.Fatalf("ran %d cycles, want %d", res.Stats.Cycles, cycles)
		}
	}
}

// idleRun returns one run in which every processor sleeps for cycles in a
// single IdleN batch: only the bare worker barrier turns.
func idleRun(t *testing.T, p, k, cycles int) func() {
	t.Helper()
	cfg := Config{P: p, K: k, StallTimeout: time.Minute}
	return func() {
		if _, err := RunUniform(cfg, func(pr Node) { pr.IdleN(cycles) }); err != nil {
			t.Fatal(err)
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin: it
// counts heap allocations across the whole process, averaged over runs
// calls of f after one warm-up call, at the caller's GOMAXPROCS.
func mallocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestSteadyStateCycleZeroAllocs asserts that steady-state cycles are
// allocation-free — worker rounds, gate handoffs, the fold/merge/scatter
// stages and the IdleN sleeper heap alike: growing a run by 2000 cycles must
// not grow its allocation count. testing.AllocsPerRun pins GOMAXPROCS to 1,
// and the engine sizes its worker set from GOMAXPROCS, so this is the
// one-worker engine; TestShardedSteadyStateZeroAllocs covers several.
func TestSteadyStateCycleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const p, k = 8, 2
	short := allocsForRun(t, p, k, 100, 0, nil)
	long := allocsForRun(t, p, k, 2100, 0, nil)
	perCycle := (long - short) / 2000
	if perCycle > 0.01 {
		t.Fatalf("steady-state cycle allocates: %.4f allocs/cycle (short run %.1f, long run %.1f)",
			perCycle, short, long)
	}
	// Idle-only cycles (the bare worker barrier, every processor asleep in
	// one IdleN batch) must be allocation-free too.
	shortIdle := testing.AllocsPerRun(4, idleRun(t, p, k, 100))
	longIdle := testing.AllocsPerRun(4, idleRun(t, p, k, 2100))
	if perCycle := (longIdle - shortIdle) / 2000; perCycle > 0.01 {
		t.Fatalf("steady-state idle cycle allocates: %.4f allocs/cycle (short %.1f, long %.1f)",
			perCycle, shortIdle, longIdle)
	}
}

// TestPhaseMarkerAllocsBounded asserts that a pending phase marker costs a
// bounded constant number of allocations, independent of run length: the
// marker queue itself plus nothing hidden in the resolver.
func TestPhaseMarkerAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const p, k = 8, 2
	// 100 extra markers between the two runs (every 20 cycles over +2000).
	few := allocsForRun(t, p, k, 100, 20, nil)
	many := allocsForRun(t, p, k, 2100, 20, nil)
	markers := float64((2100 - 100) / 20)
	perMarker := (many - few) / markers
	if perMarker > 4 {
		t.Fatalf("phase marker costs %.2f allocs, want <= 4 (few %.1f, many %.1f)", perMarker, few, many)
	}
}

// TestTracingEnabledCycleAllocsAmortizedO1 asserts the recorder's overhead
// contract: with a cycle recorder attached (and its rings preallocated once,
// outside the measured runs), steady-state cycles still allocate nothing —
// every event lands in the rings, which wrap in place rather than grow.
func TestTracingEnabledCycleAllocsAmortizedO1(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const p, k = 8, 2
	// Rings deliberately smaller than the long run's event volume, so the
	// measurement covers wrap-around reuse, not just the pre-wrap fill.
	rec := trace.New(p, k, 1024)
	short := allocsForRun(t, p, k, 100, 0, rec)
	long := allocsForRun(t, p, k, 2100, 0, rec)
	perCycle := (long - short) / 2000
	if perCycle > 0.01 {
		t.Fatalf("tracing-enabled cycle allocates: %.4f allocs/cycle (short run %.1f, long run %.1f)",
			perCycle, short, long)
	}
	if rec.Total() == 0 {
		t.Fatal("recorder captured nothing; the guard measured the wrong path")
	}
}
