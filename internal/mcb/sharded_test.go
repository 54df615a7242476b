package mcb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// Tests of the shard-worker machinery: failure-path unwinding (no goroutine
// leaks, no wedged barriers), the IdleN batch replay and large-p operation,
// across worker counts. The cross-path and cross-GOMAXPROCS Report
// equivalence lives in determinism_test.go, the one-worker zero-alloc steady
// state in alloc_test.go.

// TestShardedRelayTraffic runs real collision-free traffic (every processor
// writes in turn, everyone reads) and checks the model accounting, at worker
// counts both below and above the processor count.
func TestShardedRelayTraffic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(gmp)
		const p, k, cycles = 6, 2, 30
		res, err := Run(cfg(p, k), relayPrograms(p, k, cycles, nil))
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", gmp, err)
		}
		if res.Stats.Cycles != cycles {
			t.Fatalf("GOMAXPROCS=%d: Cycles = %d, want %d", gmp, res.Stats.Cycles, cycles)
		}
		if res.Stats.Messages != cycles {
			t.Fatalf("GOMAXPROCS=%d: Messages = %d, want %d (one writer per cycle)", gmp, res.Stats.Messages, cycles)
		}
	}
}

// TestShardedIdleNBatch pins the IdleN batch replay to the per-cycle
// semantics: ragged idle stretches across processors must produce exactly
// the cycle count of per-cycle idling, and a mid-stretch crash-stop must
// still fire on its exact cycle.
func TestShardedIdleNBatch(t *testing.T) {
	prog := func(pr Node) {
		id := pr.ID()
		pr.IdleN(5 + id*3) // ragged: batches of different lengths interleave
		if id == 0 {
			pr.Write(0, MsgX(1, 42))
		} else {
			pr.Read(0)
		}
		pr.IdleN(4)
	}
	// Processor 3 idles longest (14 cycles), then the write cycle, then 4.
	s, err := RunUniform(cfg(4, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.Cycles != 14+1+4 || s.Stats.Messages != 1 {
		t.Fatalf("cycles=%d msgs=%d, want 19 and 1", s.Stats.Cycles, s.Stats.Messages)
	}

	// Crash inside the idle stretch: IdleN must fall back to per-cycle issue
	// so the processor completes exactly 7 operations.
	c := cfg(3, 1)
	c.Faults = &FaultPlan{Seed: 9, Crashes: []Crash{{Proc: 1, Cycle: 7}}}
	res, err := RunUniform(c, func(pr Node) { pr.IdleN(20) })
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want CrashError", err)
	}
	if len(res.Stats.Faults.Crashes) != 1 || res.Stats.Faults.Crashes[0].Cycle != 7 {
		t.Fatalf("crash events = %+v, want one crash after cycle 7", res.Stats.Faults.Crashes)
	}
}

// TestShardedSteadyStateZeroAllocs is the multi-worker variant of
// TestSteadyStateCycleZeroAllocs: at 2 and 4 workers the cross-worker merge,
// the per-worker scatter and the gate handoffs between workers must be
// allocation-free in the steady state too, busy and idle alike. It counts
// mallocs itself, since testing.AllocsPerRun would pin GOMAXPROCS to 1. With
// several Ps the runtime's per-P goroutine and sudog caches make a run's
// set-up cost vary by a few dozen allocations, so the two runs differ by
// 20000 cycles, not 2000, to keep that noise well below the bound.
func TestShardedSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const p, k, gap = 8, 2, 20000
	for _, gmp := range []int{2, 4} {
		runtime.GOMAXPROCS(gmp)
		short := mallocsPerRun(4, steadyRun(t, p, k, 100, 0, nil))
		long := mallocsPerRun(4, steadyRun(t, p, k, 100+gap, 0, nil))
		if perCycle := (long - short) / gap; perCycle > 0.01 {
			t.Fatalf("GOMAXPROCS=%d: steady-state cycle allocates: %.4f allocs/cycle (short %.1f, long %.1f)",
				gmp, perCycle, short, long)
		}
		shortIdle := mallocsPerRun(4, idleRun(t, p, k, 100))
		longIdle := mallocsPerRun(4, idleRun(t, p, k, 100+gap))
		if perCycle := (longIdle - shortIdle) / gap; perCycle > 0.01 {
			t.Fatalf("GOMAXPROCS=%d: idle cycle allocates: %.4f allocs/cycle (short %.1f, long %.1f)",
				gmp, perCycle, shortIdle, longIdle)
		}
	}
}

// TestShardedLargeP exercises the p >> GOMAXPROCS regime the engine is built
// for: 4096 processors, real traffic, a ragged IdleN tail.
func TestShardedLargeP(t *testing.T) {
	const p, k, cycles = 4096, 8, 4
	res, err := RunUniform(cfg(p, k), func(pr Node) {
		id := pr.ID()
		for c := 0; c < cycles; c++ {
			if id == c*k/cycles { // unique writer per (cycle, channel 0)
				pr.Write(0, MsgX(1, int64(id)))
			} else {
				pr.Read(0)
			}
		}
		pr.IdleN(id % 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != cycles+2 || res.Stats.Messages != cycles {
		t.Fatalf("Cycles=%d Messages=%d, want %d and %d", res.Stats.Cycles, res.Stats.Messages, cycles+2, cycles)
	}
}

// TestShardRetirementChurn runs random ragged programs — processors
// leaving at different cycles, IdleN stretches, phase markers — so that
// whole shards retire from the worker barrier while others keep going, and
// checks the exact cycle and message counts. A worker that retires lowers
// the barrier head count for the next round; an arrival that read the head
// count after that change resolved the round twice (double-counted cycles,
// and a data race under -race).
func TestShardRetirementChurn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 2000; iter++ {
		runtime.GOMAXPROCS(2 + iter%3)
		p := 4 + rng.Intn(40)
		k := 1 + rng.Intn(p/2+1)
		life := make([]int, p)
		idle := make([]int, p)
		for i := range life {
			life[i] = rng.Intn(30)
			idle[i] = rng.Intn(6)
		}
		// Processor id's cycle count; id < k writes its own channel id on
		// its cycles c ≡ id (mod k), so writes never collide.
		var wantCycles, wantMsgs int64
		ops := func(id, c int) (cycles, writes int64) {
			switch {
			case id < k && c%k == id:
				return 1, 1
			case (c+id)%5 == 0:
				return int64(idle[id]), 0
			}
			return 1, 0
		}
		for id := 0; id < p; id++ {
			var n int64
			for c := 0; c < life[id]; c++ {
				cy, w := ops(id, c)
				n += cy
				wantMsgs += w
			}
			wantCycles = max(wantCycles, n)
		}
		res, err := RunUniform(cfg(p, k), func(pr Node) {
			id := pr.ID()
			for c := 0; c < life[id]; c++ {
				if c == 3 && id%3 == 0 {
					pr.Phase("churn")
				}
				switch cy, w := ops(id, c); {
				case w == 1:
					pr.WriteRead(id, MsgX(1, int64(c)), (id+c)%k)
				case (c+id)%5 == 0:
					pr.IdleN(int(cy))
				default:
					pr.Read((c + id) % k)
				}
			}
		})
		if err != nil {
			t.Fatalf("iteration %d (p=%d k=%d): %v", iter, p, k, err)
		}
		if res.Stats.Cycles != wantCycles || res.Stats.Messages != wantMsgs {
			t.Fatalf("iteration %d (p=%d k=%d): cycles=%d messages=%d, want %d and %d",
				iter, p, k, res.Stats.Cycles, res.Stats.Messages, wantCycles, wantMsgs)
		}
	}
}

// TestShardedNoLeakAfterAborts drives every abort flavour through the engine
// and checks that workers, processors and the run itself all drain:
// a failure while workers sleep on their submission tokens and processors
// park on their gates must wake everybody.
func TestShardedNoLeakAfterAborts(t *testing.T) {
	base := runtime.NumGoroutine()

	for i := 0; i < 10; i++ {
		// Collision.
		_, err := RunUniform(cfg(4, 2), func(pr Node) {
			pr.Write(0, MsgX(1, int64(pr.ID())))
			pr.IdleN(3)
		})
		var colErr *CollisionError
		if !errors.As(err, &colErr) {
			t.Fatalf("iteration %d: got %v, want CollisionError", i, err)
		}

		// Abortf, with the other processors parked mid-IdleN-batch.
		_, err = RunUniform(cfg(4, 2), func(pr Node) {
			pr.Idle()
			if pr.ID() == 1 {
				pr.Idle()
				pr.Abortf("deliberate")
			}
			pr.IdleN(40)
		})
		var ae *AbortError
		if !errors.As(err, &ae) {
			t.Fatalf("iteration %d: got %v, want AbortError", i, err)
		}
		if ae.Proc != 1 {
			t.Fatalf("iteration %d: AbortError.Proc = %d, want 1", i, ae.Proc)
		}

		// Crash-stop of a whole shard: every processor a worker owns exits.
		c := cfg(4, 2)
		c.Faults = &FaultPlan{Seed: uint64(i + 1), Crashes: []Crash{{Proc: 2, Cycle: 3}}}
		_, err = Run(c, relayPrograms(4, 2, 10, nil))
		var ce *CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("iteration %d: got %v, want CrashError", i, err)
		}

		// MaxCycles budget, firing while every processor sits in one big
		// batch (the resolver aborts from inside a worker).
		c = cfg(4, 2)
		c.MaxCycles = 16
		_, err = RunUniform(c, func(pr Node) { pr.IdleN(1000) })
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("iteration %d: got %v, want BudgetError", i, err)
		}
	}
	waitGoroutines(t, base, 5*time.Second)
}

// TestShardedStallWatchdog: a processor that stops issuing ops leaves its
// worker asleep on the submission token; the stall watchdog must still fire
// and the run must drain.
func TestShardedStallWatchdog(t *testing.T) {
	base := runtime.NumGoroutine()
	c := cfg(3, 1)
	c.StallTimeout = 50 * time.Millisecond
	progs := []func(Node){
		func(pr Node) { pr.IdleN(8) },
		func(pr Node) { pr.IdleN(8) },
		func(pr Node) {
			pr.Idle()
			time.Sleep(300 * time.Millisecond)
			pr.IdleN(7)
		},
	}
	_, err := Run(c, progs)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want StallError", err)
	}
	waitGoroutines(t, base, 3*time.Second)
}

// crossProcsReports runs prog under c at each worker count in gmps and fails
// unless the canonical Reports (with any run error folded into Extra) are
// byte-identical across them.
func crossProcsReports(t *testing.T, tag string, c Config, gmps []int, prog func(Node)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref []byte
	for _, gmp := range gmps {
		runtime.GOMAXPROCS(gmp)
		rc := c
		if rc.Faults != nil {
			rc.Faults = rc.Faults.Clone()
		}
		res, err := RunUniform(rc, prog)
		if res == nil {
			t.Fatalf("%s GOMAXPROCS=%d: nil result (err=%v)", tag, gmp, err)
		}
		rep := NewReport(rc, &res.Stats)
		if err != nil {
			rep.Extra = map[string]any{"error": err.Error()}
		}
		b, jerr := rep.JSON()
		if jerr != nil {
			t.Fatal(jerr)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(b, ref) {
			t.Fatalf("%s: GOMAXPROCS=%d report diverges:\n%s\n--- want ---\n%s", tag, gmp, b, ref)
		}
	}
}

// TestShardedCrashStopMidCycle crash-stops processors in the middle of a
// sparse segment — once while the victim is the sole active writer, once
// while it sleeps inside an IdleN batch — and holds the Report to byte
// identity across worker counts.
func TestShardedCrashStopMidCycle(t *testing.T) {
	const p, k, segLen = 8, 2, 8
	prog := func(pr Node) {
		id := pr.ID()
		for seg := 0; seg < 6; seg++ {
			if seg%p == id {
				for i := 0; i < segLen; i++ {
					pr.WriteRead(0, MsgX(1, int64(seg*segLen+i)), 0)
				}
			} else {
				pr.IdleN(segLen)
			}
		}
	}
	crashes := []Crash{
		{Proc: 2, Cycle: 20}, // mid-segment 2: proc 2 is the active writer
		{Proc: 6, Cycle: 35}, // mid-segment 4: proc 6 is a mid-batch sleeper
	}
	for _, cr := range crashes {
		c := cfg(p, k)
		c.Faults = &FaultPlan{Seed: 3, Crashes: []Crash{cr}}
		crossProcsReports(t, fmt.Sprintf("crash=%+v", cr), c, []int{1, 4, runtime.NumCPU()}, prog)
	}
}

// TestShardedAbortDuringScatter aborts the run on a cycle where every other
// processor has a read result in flight: the failure races the workers'
// post-release scatter stage, which must neither wedge the barrier nor leak.
// The aborting processor's attribution must survive the race.
func TestShardedAbortDuringScatter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := runtime.NumGoroutine()
	const p, k = 32, 2
	for _, gmp := range []int{1, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(gmp)
		for abortCycle := 1; abortCycle <= 5; abortCycle++ {
			_, err := RunUniform(cfg(p, k), func(pr Node) {
				id := pr.ID()
				for c := 0; c < 40; c++ {
					switch {
					case id == 0:
						pr.WriteRead(0, MsgX(1, int64(c)), 0)
					case id == 9 && c == abortCycle:
						pr.Abortf("scatter abort at cycle %d", c)
					default:
						pr.Read(0)
					}
				}
			})
			var ae *AbortError
			if !errors.As(err, &ae) {
				t.Fatalf("GOMAXPROCS=%d abortCycle=%d: got %v, want AbortError", gmp, abortCycle, err)
			}
			if ae.Proc != 9 {
				t.Fatalf("GOMAXPROCS=%d abortCycle=%d: AbortError.Proc = %d, want 9", gmp, abortCycle, ae.Proc)
			}
		}
	}
	waitGoroutines(t, base, 5*time.Second)
}

// TestShardedIdleNBoundaries pins the sleeper wake arithmetic at its edges:
// length-1 batches (the announcement round is the whole batch), back-to-back
// batches, a batch whose wake cycle is the processor's last (straight into
// exit), and phase markers attached to batch announcements. The Report must
// match the per-cycle count and be byte-identical at every worker count.
func TestShardedIdleNBoundaries(t *testing.T) {
	prog := func(pr Node) {
		id := pr.ID()
		pr.Phase("warm")
		pr.IdleN(1) // announcement round is the whole batch
		pr.IdleN(1) // back-to-back batches
		pr.IdleN(3)
		if id == 0 {
			pr.Write(0, MsgX(1, 7))
		} else {
			pr.Read(0)
		}
		pr.Phase("tail") // attached to the next batch's announcement
		pr.IdleN(id + 1) // ragged: each processor wakes straight into exit
	}
	res, err := RunUniform(cfg(5, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	if warm, tail := res.Stats.PhaseByName("warm"), res.Stats.PhaseByName("tail"); warm == nil || tail == nil ||
		warm.Cycles != 1+1+3+1 || tail.Cycles != 5 {
		t.Fatalf("phases = %+v, want warm 6 cycles and tail 5", res.Stats.Phases)
	}
	crossProcsReports(t, "boundaries", cfg(5, 1), []int{1, 4, runtime.NumCPU()}, prog)
}

// TestShardedPanicUnwinds: a plain panic in a program surfaces as an engine
// error and the run drains (the panicking processor exits the protocol; the
// survivors finish).
func TestShardedPanicUnwinds(t *testing.T) {
	base := runtime.NumGoroutine()
	_, err := RunUniform(cfg(4, 2), func(pr Node) {
		pr.Idle()
		if pr.ID() == 2 {
			panic(fmt.Sprintf("boom from %d", pr.ID()))
		}
		pr.IdleN(3)
	})
	if err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("got %v, want an abort wrapping ErrAborted", err)
	}
	waitGoroutines(t, base, 3*time.Second)
}
