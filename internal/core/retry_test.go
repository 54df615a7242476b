package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/dist"
	"mcbnet/internal/mcb"
	"mcbnet/internal/seq"
)

func retrySortOpts(k int, plan *mcb.FaultPlan, attempts int) SortOptions {
	return SortOptions{
		K:            k,
		MaxCycles:    1 << 20,
		StallTimeout: 20 * time.Second,
		Faults:       plan,
		Retry:        mcb.RetryPolicy{MaxAttempts: attempts},
	}
}

// TestSortWithRetryVerifierDrivesAttempts: the retry loop re-executes when
// the verifier rejects, and the accepted report carries the attempt count.
func TestSortWithRetryVerifierDrivesAttempts(t *testing.T) {
	inputs := [][]int64{{3, 1}, {4, 1}, {5, 9}, {2, 6}}
	calls := 0
	o := retrySortOpts(2, nil, 4)
	o.Verifier = func(in, out [][]int64, order Order) error {
		calls++
		if calls < 3 {
			return errors.New("synthetic rejection")
		}
		return VerifySort(in, out, order)
	}
	outs, rep, err := SortWithRetry(inputs, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 3 || calls != 3 {
		t.Fatalf("attempts=%d verifier calls=%d, want 3 and 3", rep.Attempts, calls)
	}
	checkSorted(t, inputs, outs, Descending, "verifier-driven retry")
}

// TestSortWithRetryRecoversFromFaults: under a low stochastic fault rate
// some seeds fault the first attempt and recover on a later one. The seed
// scan is deterministic — the engine replays each (seed, plan) identically —
// so this asserts real fault recovery, not luck.
func TestSortWithRetryRecoversFromFaults(t *testing.T) {
	inputs := make([][]int64, 8)
	for i := range inputs {
		for j := 0; j < 8; j++ {
			inputs[i] = append(inputs[i], int64((i*37+j*11)%64))
		}
	}
	found := false
	for seed := uint64(1); seed <= 60 && !found; seed++ {
		plan := &mcb.FaultPlan{Seed: seed, DropRate: 0.002, CorruptRate: 0.002, Checksum: true}
		outs, rep, err := SortWithRetry(inputs, retrySortOpts(4, plan, 8))
		if err != nil {
			// This seed faulted all 8 attempts; the error must be typed.
			if !mcb.Retryable(err) {
				t.Fatalf("seed %d: exhausted retries with a non-retryable error: %v", seed, err)
			}
			continue
		}
		if rep.Attempts > 1 {
			checkSorted(t, inputs, outs, Descending, "fault recovery")
			found = true
		}
	}
	if !found {
		t.Fatal("no seed in 1..60 produced a faulted-then-recovered sort (attempts > 1)")
	}
}

// TestSortWithRetryNonRetryableImmediate: validation errors recur
// deterministically and must not burn attempts.
func TestSortWithRetryNonRetryableImmediate(t *testing.T) {
	_, _, err := SortWithRetry([][]int64{{1}}, retrySortOpts(0, nil, 5))
	if err == nil {
		t.Fatal("expected a validation error for K=0")
	}
	if mcb.Retryable(err) {
		t.Fatalf("validation error classified retryable: %v", err)
	}
}

// TestSelectWithRetryGracefulDegradation: a scripted crash kills a
// processor; with DegradeOnCrash the next attempt gives its elements up and
// answers the rank over the survivors.
func TestSelectWithRetryGracefulDegradation(t *testing.T) {
	inputs := [][]int64{
		{90, 10, 55},
		{70, 30},
		{100, 20, 60, 40}, // crashes: these elements are lost
		{80, 50},
		{35, 65},
	}
	const d = 4
	o := SelectOptions{
		K:            2,
		D:            d,
		MaxCycles:    1 << 20,
		StallTimeout: 20 * time.Second,
		Faults:       &mcb.FaultPlan{Seed: 1, Crashes: []mcb.Crash{{Proc: 2, Cycle: 1}}},
		Retry:        mcb.RetryPolicy{MaxAttempts: 3, DegradeOnCrash: true},
	}
	val, rep, err := SelectWithRetry(inputs, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (crash, then degraded success)", rep.Attempts)
	}
	if len(rep.DeadProcs) != 1 || rep.DeadProcs[0] != 2 {
		t.Fatalf("DeadProcs = %v, want [2]", rep.DeadProcs)
	}
	// Expected: rank d of the survivors' multiset.
	var survivors []int64
	for i, in := range inputs {
		if i != 2 {
			survivors = append(survivors, in...)
		}
	}
	seq.SortInt64Desc(survivors)
	if want := survivors[d-1]; val != want {
		t.Fatalf("degraded selection = %d, want rank %d of survivors = %d", val, d, want)
	}
}

// TestSelectWithRetryDegradationLosesTooMuch: when the crash takes more
// elements than the requested rank leaves room for, the degradation path
// must fail loudly (typed, wrapping the CrashError) instead of answering a
// different question.
func TestSelectWithRetryDegradationLosesTooMuch(t *testing.T) {
	inputs := [][]int64{{5, 3}, {9, 1, 7, 2}, {4, 6}}
	o := SelectOptions{
		K:            1,
		D:            6, // survivors hold only 4 elements after the crash
		MaxCycles:    1 << 20,
		StallTimeout: 20 * time.Second,
		Faults:       &mcb.FaultPlan{Seed: 1, Crashes: []mcb.Crash{{Proc: 1, Cycle: 0}}},
		Retry:        mcb.RetryPolicy{MaxAttempts: 3, DegradeOnCrash: true},
	}
	_, _, err := SelectWithRetry(inputs, o)
	if err == nil {
		t.Fatal("expected the degradation to refuse a rank beyond the survivors")
	}
	if !errors.Is(err, mcb.ErrAborted) {
		t.Fatalf("degradation failure must stay in the typed taxonomy, got %v", err)
	}
	var ce *mcb.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("degradation failure must wrap the causing CrashError, got %v", err)
	}
}

// TestSelectWithRetryWithoutDegradeCrashFails: the same crash without
// DegradeOnCrash exhausts the attempts (the scripted crash recurs) and
// surfaces the CrashError, with or without a checkpoint store, and the
// report counts exactly the attempts the policy allows.
func TestSelectWithRetryWithoutDegradeCrashFails(t *testing.T) {
	inputs := [][]int64{{5, 3}, {9, 1}, {4, 6}}
	for _, store := range []checkpoint.Store{nil, checkpoint.NewMem()} {
		o := SelectOptions{
			K:            1,
			D:            2,
			MaxCycles:    1 << 20,
			StallTimeout: 20 * time.Second,
			Faults:       &mcb.FaultPlan{Seed: 1, Crashes: []mcb.Crash{{Proc: 1, Cycle: 0}}},
			Retry:        mcb.RetryPolicy{MaxAttempts: 2},
			Checkpoints:  store,
		}
		_, rep, err := SelectWithRetry(inputs, o)
		var ce *mcb.CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("store %v: got %v, want CrashError", store != nil, err)
		}
		if rep == nil || rep.Attempts != 2 {
			t.Fatalf("store %v: report = %+v, want 2 exhausted attempts", store != nil, rep)
		}
	}
}

// TestDegradedRunCountsOriginalChannels: a run that loses channel 1 at cycle
// 40 and finishes on the k' = 3 survivors reports its per-channel counts in
// the caller's k = 4 numbering, with or without a checkpoint store. The sort
// restarts from phase 0 on the survivors, so every count is a fault-free
// k = 3 sort's, spread over channels 0, 2 and 3. The selection resumes from
// its init boundary, accepted on k = 4, and runs every filtering iteration on
// the survivors: its init phases are a fault-free k = 4 selection's, every
// later phase a fault-free k = 3 selection's spread over the survivors, and
// the dead channel carries nothing after the outage.
func TestDegradedRunCountsOriginalChannels(t *testing.T) {
	const p, k, n, from = 8, 4, 64, 40
	survivors := []int{0, 2, 3}
	spread := func(v []int64) []int64 {
		if v == nil {
			return nil
		}
		out := make([]int64, k)
		for c, x := range v {
			out[survivors[c]] = x
		}
		return out
	}
	inputs := dist.Values(dist.NewRNG(1), dist.NearlyEven(n, p))
	d := (n + 1) / 2
	retry := mcb.RetryPolicy{MaxAttempts: 4, DegradeOnOutage: true}
	checkDegraded := func(what string, rec mcb.Recovery) {
		t.Helper()
		if rec.DegradedK != k-1 || !reflect.DeepEqual(rec.DeadChannels, []int{1}) {
			t.Fatalf("%s: degraded to k'=%d losing %v, want k'=3 losing [1]", what, rec.DegradedK, rec.DeadChannels)
		}
	}

	_, sortRef, err := Sort(inputs, SortOptions{K: k - 1})
	if err != nil {
		t.Fatal(err)
	}
	_, selRef4, err := Select(inputs, SelectOptions{K: k, D: d})
	if err != nil {
		t.Fatal(err)
	}
	_, selRef3, err := Select(inputs, SelectOptions{K: k - 1, D: d})
	if err != nil {
		t.Fatal(err)
	}

	for _, store := range []checkpoint.Store{nil, checkpoint.NewMem()} {
		_, rep, err := SortWithRetry(inputs, SortOptions{
			K: k, MaxCycles: 1 << 20, Faults: permanentOutage(1, from), Retry: retry, Checkpoints: store,
		})
		if err != nil {
			t.Fatalf("sort (store %v): %v", store != nil, err)
		}
		checkDegraded("sort", rep.Recovery)
		if got, want := rep.Stats.PerChannel, spread(sortRef.Stats.PerChannel); !reflect.DeepEqual(got, want) {
			t.Fatalf("sort (store %v): per-channel %v, want %v", store != nil, got, want)
		}
		for _, ph := range rep.Stats.Phases {
			ref := sortRef.Stats.PhaseByName(ph.Name)
			if ref == nil || !reflect.DeepEqual(ph.PerChannel, spread(ref.PerChannel)) {
				t.Fatalf("sort (store %v): phase %s per-channel %v, reference %+v", store != nil, ph.Name, ph.PerChannel, ref)
			}
		}

		_, srep, err := SelectWithRetry(inputs, SelectOptions{
			K: k, D: d, MaxCycles: 1 << 20, Faults: permanentOutage(1, from), Retry: retry, Checkpoints: store,
		})
		if err != nil {
			t.Fatalf("select (store %v): %v", store != nil, err)
		}
		checkDegraded("select", srep.Recovery)
		if srep.Resumes == 0 || srep.CheckpointPhase != "select:init" {
			t.Fatalf("select (store %v): resumed %d times from %q, want a resume from select:init", store != nil, srep.Resumes, srep.CheckpointPhase)
		}
		want := make([]int64, k)
		for _, ph := range srep.Stats.Phases {
			var wantPh []int64
			if strings.HasPrefix(ph.Name, "select:init") {
				wantPh = selRef4.Stats.PhaseByName(ph.Name).PerChannel
			} else if ref := selRef3.Stats.PhaseByName(ph.Name); ref != nil {
				wantPh = spread(ref.PerChannel)
			} else {
				t.Fatalf("select (store %v): phase %s missing from the k=3 reference", store != nil, ph.Name)
			}
			if !reflect.DeepEqual(ph.PerChannel, wantPh) {
				t.Fatalf("select (store %v): phase %s per-channel %v, want %v", store != nil, ph.Name, ph.PerChannel, wantPh)
			}
			for c, x := range wantPh {
				want[c] += x
			}
		}
		if got := srep.Stats.PerChannel; !reflect.DeepEqual(got, want) {
			t.Fatalf("select (store %v): per-channel %v, want %v", store != nil, got, want)
		}
	}
}

func TestMergeProcs(t *testing.T) {
	got := mergeProcs([]int{3, 1}, []int{2, 1, 5})
	want := []int{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("mergeProcs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeProcs = %v, want %v", got, want)
		}
	}
}

func TestEmptyProcsCopies(t *testing.T) {
	in := [][]int64{{1}, {2}, {3}}
	out := emptyProcs(in, []int{1, 7})
	if len(out) != 3 || out[1] != nil || len(in[1]) != 1 {
		t.Fatalf("emptyProcs mutated the input or wrong shape: in=%v out=%v", in, out)
	}
}
