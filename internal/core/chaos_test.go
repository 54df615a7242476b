package core

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/mcb"
)

// This file is the chaos suite of the failure plane: hundreds of randomized
// (but seeded — every failure is replayable from the iteration's plan)
// fault plans against the sorting and selection stacks, asserting the
// robustness contract:
//
//   - every run returns either a verified-correct result or a typed error
//     from the mcb taxonomy — never a silent wrong answer;
//   - no run deadlocks: a StallError (the lock-step protocols never block
//     outside the engine barrier, so a stall is the deadlock proxy) fails
//     the suite, and every run finishes within the watchdog budget;
//   - partial Stats accompanying failures stay consistent (per-processor
//     and per-channel message counts each sum to the message total);
//   - no processor goroutines leak across runs.

// chaosPlan draws a random fault plan. Rates are kept low enough that a
// retry has a fighting chance, and high enough that a fair share of runs
// fault; scripted outages and crashes are mixed in.
func chaosPlan(r *rand.Rand, p, k int) *mcb.FaultPlan {
	plan := &mcb.FaultPlan{Seed: r.Uint64(), Checksum: r.Float64() < 0.75}
	if r.Float64() < 0.5 {
		plan.DropRate = r.Float64() * 0.03
	}
	if r.Float64() < 0.4 {
		plan.CorruptRate = r.Float64() * 0.03
	}
	if r.Float64() < 0.3 {
		from := int64(r.Intn(300))
		plan.Outages = append(plan.Outages, mcb.Outage{
			Ch:   r.Intn(k),
			From: from,
			To:   from + int64(1+r.Intn(40)),
		})
	}
	if r.Float64() < 0.3 {
		plan.Crashes = append(plan.Crashes, mcb.Crash{
			Proc:  r.Intn(p),
			Cycle: int64(r.Intn(200)),
		})
	}
	return plan
}

// chaosInputs draws ~n small values spread over p processors (empty
// processors allowed, at least one element total).
func chaosInputs(r *rand.Rand, p, n int) [][]int64 {
	inputs := make([][]int64, p)
	for i := 0; i < n; i++ {
		id := r.Intn(p)
		inputs[id] = append(inputs[id], r.Int63n(200)-100)
	}
	if total(inputs) == 0 {
		inputs[0] = append(inputs[0], r.Int63n(200)-100)
	}
	return inputs
}

func total(inputs [][]int64) int {
	n := 0
	for _, in := range inputs {
		n += len(in)
	}
	return n
}

// requireTypedFailure asserts err belongs to the typed taxonomy and is not a
// stall (the deadlock proxy).
func requireTypedFailure(t *testing.T, iter int, err error) {
	t.Helper()
	var se *mcb.StallError
	if errors.As(err, &se) {
		t.Fatalf("iteration %d: chaos run stalled (deadlock proxy): %v", iter, err)
	}
	var col *mcb.CollisionError
	if !errors.Is(err, mcb.ErrAborted) && !errors.As(err, &col) {
		t.Fatalf("iteration %d: untyped failure %T: %v", iter, err, err)
	}
}

// requireStatsConsistent asserts the partial-stats invariant: counters
// reflect fully resolved cycles only, so the three message tallies agree
// even for a run that aborted mid-cycle.
func requireStatsConsistent(t *testing.T, iter int, s *mcb.Stats) {
	t.Helper()
	var perProc, perChan int64
	for _, v := range s.PerProc {
		perProc += v
	}
	for _, v := range s.PerChannel {
		perChan += v
	}
	if perProc != s.Messages || perChan != s.Messages {
		t.Fatalf("iteration %d: inconsistent partial stats: Messages=%d sum(PerProc)=%d sum(PerChannel)=%d",
			iter, s.Messages, perProc, perChan)
	}
	var phaseMsgs int64
	for _, ph := range s.Phases {
		phaseMsgs += ph.Messages
	}
	if phaseMsgs > s.Messages {
		t.Fatalf("iteration %d: phase messages %d exceed total %d", iter, phaseMsgs, s.Messages)
	}
}

// requireGoroutineDrain polls until the goroutine count returns to the
// baseline, failing with a full stack dump on leak.
func requireGoroutineDrain(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestChaosSort(t *testing.T) {
	chaosSort(t, 0xC0FFEE, 120)
}

// TestChaosSortSharded is a second seed set of the sort chaos suite: the
// full failure plane (drops, corruption, outages, crash-stops) plus the
// retry layer, with shard workers coordinating the processors at every
// worker count. Run under -race in CI.
func TestChaosSortSharded(t *testing.T) {
	chaosSort(t, 0x5A4DED, 60)
}

func chaosSort(t *testing.T, seed int64, iterations int) {
	base := runtime.NumGoroutine()
	r := rand.New(rand.NewSource(seed))
	failed, recovered := 0, 0
	// Rotate the worker count: the engine derives its shard layout from
	// GOMAXPROCS, so the same fault plans replay against single-worker,
	// few-worker and one-worker-per-core topologies.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	gmps := []int{1, 2, 4, runtime.NumCPU()}
	for iter := 0; iter < iterations; iter++ {
		runtime.GOMAXPROCS(gmps[iter%len(gmps)])
		p := 3 + r.Intn(4)
		k := 1 + r.Intn(p)
		inputs := chaosInputs(r, p, p+r.Intn(40))
		o := SortOptions{
			K: k,
			// The cycle budget converts corrupted-count runaway loops into a
			// typed BudgetError instead of minutes of spinning.
			MaxCycles:    8000,
			StallTimeout: 15 * time.Second,
			Faults:       chaosPlan(r, p, k),
			Retry:        mcb.RetryPolicy{MaxAttempts: 2},
		}
		outs, rep, err := SortWithRetry(inputs, o)
		if err != nil {
			failed++
			requireTypedFailure(t, iter, err)
		} else {
			if rep.Attempts > 1 {
				recovered++
			}
			checkSorted(t, inputs, outs, Descending, "chaos sort")
		}
		if rep != nil {
			requireStatsConsistent(t, iter, &rep.Stats)
		}
	}
	t.Logf("chaos sort: %d/%d runs failed with a typed error, %d recovered via retry", failed, iterations, recovered)
	if failed == 0 {
		t.Error("chaos plans never faulted a sort; the suite is not exercising the failure plane")
	}
	if failed == iterations {
		t.Error("every chaos sort failed; rates leave the retry layer nothing to verify")
	}
	requireGoroutineDrain(t, base)
}

// TestChaosResumeMatrix is the chaos suite of the checkpoint/resume plane:
//
//   - answers: whatever faults strike, an accepted checkpointed run must
//     answer exactly what the uninterrupted run answers — resuming from a
//     snapshot must never bend the result;
//   - replay economy: for a late-phase deterministic fault, resuming from
//     the last boundary, with a store or without, replays fewer cycles than
//     the fault's start, which any restart from cycle 0 would replay;
//   - degradation: a permanent scripted outage defeats plain retry (the
//     outage never heals, every attempt dies the same death) but a
//     checkpointed run with DegradeOnOutage finishes on the k' < k
//     surviving channels.
func TestChaosResumeMatrix(t *testing.T) {
	t.Run("answers-identical", func(t *testing.T) {
		base := runtime.NumGoroutine()
		r := rand.New(rand.NewSource(0x2E5C0E))
		const iterations = 60
		sortResumes, selResumes, failed := 0, 0, 0
		for iter := 0; iter < iterations; iter++ {
			p := 3 + r.Intn(4)
			k := 2 + r.Intn(p-1)
			inputs := chaosInputs(r, p, p+r.Intn(40))
			// Stochastic faults only: they reseed per attempt, so a resumed
			// segment has a fighting chance while scripted faults would
			// recur deterministically.
			plan := &mcb.FaultPlan{Seed: r.Uint64(), Checksum: true, DropRate: r.Float64() * 0.02, CorruptRate: r.Float64() * 0.02}

			wantOuts, _, err := Sort(inputs, SortOptions{K: k, Algorithm: AlgoColumnsortGather})
			if err != nil {
				t.Fatalf("iteration %d: fault-free sort failed: %v", iter, err)
			}
			o := SortOptions{
				K: k, Algorithm: AlgoColumnsortGather,
				MaxCycles: 8000, StallTimeout: 15 * time.Second,
				Faults:      plan,
				Retry:       mcb.RetryPolicy{MaxAttempts: 4},
				Checkpoints: checkpoint.NewMem(),
			}
			outs, rep, err := SortWithRetry(inputs, o)
			if err != nil {
				failed++
				requireTypedFailure(t, iter, err)
			} else {
				if !reflect.DeepEqual(outs, wantOuts) {
					t.Fatalf("iteration %d: resumed sort (resumes=%d) differs from uninterrupted run", iter, rep.Resumes)
				}
				sortResumes += rep.Resumes
			}
			if rep != nil {
				requireStatsConsistent(t, iter, &rep.Stats)
			}

			n := total(inputs)
			d := 1 + r.Intn(n)
			wantVal, _, err := Select(inputs, SelectOptions{K: k, D: d})
			if err != nil {
				t.Fatalf("iteration %d: fault-free select failed: %v", iter, err)
			}
			so := SelectOptions{
				K: k, D: d,
				MaxCycles: 8000, StallTimeout: 15 * time.Second,
				Faults:      plan,
				Retry:       mcb.RetryPolicy{MaxAttempts: 4},
				Checkpoints: checkpoint.NewMem(),
			}
			val, srep, err := SelectWithRetry(inputs, so)
			if err != nil {
				failed++
				requireTypedFailure(t, iter, err)
			} else {
				if val != wantVal {
					t.Fatalf("iteration %d: resumed select answered %d, uninterrupted %d (resumes=%d)", iter, val, wantVal, srep.Resumes)
				}
				selResumes += srep.Resumes
			}
			if srep != nil {
				requireStatsConsistent(t, iter, &srep.Stats)
			}
		}
		t.Logf("resume matrix: %d sort resumes, %d select resumes, %d typed failures over %d iterations",
			sortResumes, selResumes, failed, iterations)
		if sortResumes == 0 && selResumes == 0 {
			t.Error("chaos plans never forced a checkpoint resume; the matrix is not exercising recovery")
		}
		requireGoroutineDrain(t, base)
	})

	t.Run("late-fault-replays-less", func(t *testing.T) {
		r := rand.New(rand.NewSource(0x1A7E))
		inputs := chaosInputs(r, 8, 120)
		n := total(inputs)
		opts := SelectOptions{K: 2, D: n / 3, StallTimeout: 15 * time.Second}

		want, wantRep, err := Select(inputs, opts)
		if err != nil {
			t.Fatalf("fault-free select failed: %v", err)
		}
		// Channel 0 dies for good halfway through and never heals. With a
		// store or without, the run resumes from its last accepted boundary
		// on the surviving channel, so it replays fewer cycles than the
		// outage start; a restart from cycle 0 would replay at least that.
		outageFrom := wantRep.Stats.Cycles / 2
		for _, ckpt := range []bool{true, false} {
			o := opts
			o.Faults = permanentOutage(0, outageFrom)
			o.Retry = mcb.RetryPolicy{MaxAttempts: 4, DegradeOnOutage: true}
			if ckpt {
				o.Checkpoints = checkpoint.NewMem()
			}
			val, rep, err := SelectWithRetry(inputs, o)
			if err != nil {
				t.Fatalf("degraded select (store %v) failed: %v", ckpt, err)
			}
			if val != want {
				t.Fatalf("degraded select (store %v) answered %d, want %d", ckpt, val, want)
			}
			if rep.DegradedK != 1 {
				t.Fatalf("degraded select (store %v) should have degraded to k'=1: %+v", ckpt, rep.Recovery)
			}
			if rep.ReplayedCycles == 0 {
				t.Fatalf("degraded select (store %v) reports no replayed cycles; the fault did not strike", ckpt)
			}
			if rep.ReplayedCycles >= outageFrom {
				t.Fatalf("degraded select (store %v) replayed %d cycles, the outage starts at cycle %d — it restarted instead of resuming",
					ckpt, rep.ReplayedCycles, outageFrom)
			}
			t.Logf("late-phase outage at cycle %d (store %v): resume replayed %d cycles", outageFrom, ckpt, rep.ReplayedCycles)
		}
	})

	t.Run("outage-degradation-beats-plain-retry", func(t *testing.T) {
		r := rand.New(rand.NewSource(0xDE6D))
		inputs := chaosInputs(r, 6, 60)
		opts := SortOptions{K: 3, Algorithm: AlgoColumnsortGather, StallTimeout: 15 * time.Second}

		want, wantRep, err := Sort(inputs, opts)
		if err != nil {
			t.Fatalf("fault-free sort failed: %v", err)
		}
		outageFrom := wantRep.Stats.Cycles / 2

		// Plain retry without degradation: the scripted outage persists
		// across attempts (a dead transceiver does not heal because the
		// computation restarted), so every attempt dies and the policy
		// exhausts MaxAttempts.
		po := opts
		po.Faults = permanentOutage(1, outageFrom)
		po.Retry = mcb.RetryPolicy{MaxAttempts: 3}
		if _, _, err := SortWithRetry(inputs, po); err == nil {
			t.Fatal("plain retry survived a permanent outage; the scenario is not exercising degradation")
		}

		co := opts
		co.Faults = permanentOutage(1, outageFrom)
		co.Retry = mcb.RetryPolicy{MaxAttempts: 4, DegradeOnOutage: true}
		co.Checkpoints = checkpoint.NewMem()
		outs, rep, err := SortWithRetry(inputs, co)
		if err != nil {
			t.Fatalf("degraded checkpointed sort failed: %v", err)
		}
		if !reflect.DeepEqual(outs, want) {
			t.Fatal("degraded sort outputs differ from the uninterrupted run")
		}
		if rep.DegradedK != 2 || len(rep.DeadChannels) != 1 || rep.DeadChannels[0] != 1 {
			t.Fatalf("expected degradation to k'=2 with channel 1 dead, got %+v", rep)
		}
		if rep.ReplayedCycles == 0 {
			t.Fatal("degraded run reports no replayed cycles; the outage did not strike mid-run")
		}
		t.Logf("permanent outage on channel 1: completed at k'=%d after %d attempts, %d replayed cycles",
			rep.DegradedK, rep.Attempts, rep.ReplayedCycles)
	})
}

func TestChaosSelect(t *testing.T) {
	base := runtime.NumGoroutine()
	r := rand.New(rand.NewSource(0xBADD1CE))
	const iterations = 100
	failed, recovered, degraded := 0, 0, 0
	for iter := 0; iter < iterations; iter++ {
		p := 3 + r.Intn(4)
		k := 1 + r.Intn(p)
		inputs := chaosInputs(r, p, p+r.Intn(40))
		n := total(inputs)
		o := SelectOptions{
			K:            k,
			D:            1 + r.Intn(n),
			MaxCycles:    8000,
			StallTimeout: 15 * time.Second,
			Faults:       chaosPlan(r, p, k),
			Retry:        mcb.RetryPolicy{MaxAttempts: 2, DegradeOnCrash: r.Float64() < 0.5},
		}
		val, rep, err := SelectWithRetry(inputs, o)
		if err != nil {
			failed++
			requireTypedFailure(t, iter, err)
		} else {
			if rep.Attempts > 1 {
				recovered++
			}
			// A degraded answer is ranked over the survivors, not the full
			// input — re-verify against the surviving elements.
			cur := inputs
			if len(rep.DeadProcs) > 0 {
				degraded++
				cur = emptyProcs(inputs, rep.DeadProcs)
			}
			if verr := VerifySelect(cur, o.D, val); verr != nil {
				t.Fatalf("iteration %d: accepted answer fails recount: %v", iter, verr)
			}
		}
		if rep != nil {
			requireStatsConsistent(t, iter, &rep.Stats)
		}
	}
	t.Logf("chaos select: %d/%d runs failed with a typed error, %d recovered via retry, %d degraded", failed, iterations, recovered, degraded)
	if failed == 0 {
		t.Error("chaos plans never faulted a selection; the suite is not exercising the failure plane")
	}
	if failed == iterations {
		t.Error("every chaos selection failed; rates leave the retry layer nothing to verify")
	}
	requireGoroutineDrain(t, base)
}
