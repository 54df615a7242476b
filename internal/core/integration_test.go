package core

import (
	"errors"
	"testing"
	"time"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/dist"
	"mcbnet/internal/mcb"
	"mcbnet/internal/seq"
	"mcbnet/internal/trace"
)

// These tests exercise whole stacks end to end: the paper's algorithms as
// node-level subroutines, composed protocols, and — the deepest stack — the
// sorting algorithm running unchanged on a *simulated* MCB network hosted on
// a smaller real one (Section 2's simulation theorem carrying Section 5's
// algorithm).

func TestSortOnSimulatedNetwork(t *testing.T) {
	// Virtual MCB(8, 4) sorting, hosted on MCB(2, 2): q = 4 virtual
	// processors per host, 2 virtual channels per host channel.
	const pv, kv = 8, 4
	r := dist.NewRNG(42)
	card := dist.RandomComposition(r, 96, pv)
	inputs := dist.Values(r, card)
	outputs := make([][]int64, pv)

	res, err := mcb.SimulateUniform(
		mcb.Config{P: 2, K: 2, StallTimeout: 30 * time.Second}, pv, kv,
		func(v *mcb.VProc) {
			outputs[v.ID()] = SortNode(v, inputs[v.ID()], AlgoColumnsortGather)
		})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, inputs, outputs, Descending, "simulated-sort")
	if res.Stats.Cycles == 0 || res.Stats.Messages == 0 {
		t.Fatal("simulation consumed no host resources?")
	}
	t.Logf("virtual sort cost %d host cycles, %d host messages", res.Stats.Cycles, res.Stats.Messages)
}

func TestSelectOnSimulatedNetwork(t *testing.T) {
	const pv, kv = 4, 2
	r := dist.NewRNG(43)
	inputs := dist.Values(r, dist.Even(64, pv))
	want := kthLargestRef(inputs, 32)
	got := make([]int64, pv)
	_, err := mcb.SimulateUniform(
		mcb.Config{P: 2, K: 1, StallTimeout: 30 * time.Second}, pv, kv,
		func(v *mcb.VProc) {
			got[v.ID()] = SelectNode(v, inputs[v.ID()], 32, 0)
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g != want {
			t.Fatalf("vproc %d got %d, want %d", i, g, want)
		}
	}
}

func TestNodeAPIsInsideOneProgram(t *testing.T) {
	// Compose several collective subroutines sequentially inside a single
	// network program: max, min, rank, then a sort.
	const p, k = 8, 4
	r := dist.NewRNG(44)
	inputs := dist.Values(r, dist.NearlyEven(100, p))
	flat := dist.Flatten(inputs)
	wantSorted := append([]int64(nil), flat...)
	seq.SortInt64Desc(wantSorted)
	wantMax, wantMin := wantSorted[0], wantSorted[len(wantSorted)-1]

	type result struct {
		max, min int64
		rankMax  int
		sorted   []int64
	}
	results := make([]result, p)
	_, err := mcb.RunUniform(mcb.Config{P: p, K: k, StallTimeout: 30 * time.Second}, func(pr mcb.Node) {
		id := pr.ID()
		results[id].max = MaxNode(pr, inputs[id])
		results[id].min = MinNode(pr, inputs[id])
		results[id].rankMax = RankOfNode(pr, inputs[id], results[id].max)
		results[id].sorted = SortNode(pr, inputs[id], AlgoColumnsortVirtual)
	})
	if err != nil {
		t.Fatal(err)
	}
	outputs := make([][]int64, p)
	for i, res := range results {
		if res.max != wantMax {
			t.Errorf("proc %d max = %d, want %d", i, res.max, wantMax)
		}
		if res.min != wantMin {
			t.Errorf("proc %d min = %d, want %d", i, res.min, wantMin)
		}
		if res.rankMax != 1 {
			t.Errorf("proc %d rank of max = %d, want 1", i, res.rankMax)
		}
		outputs[i] = res.sorted
	}
	checkSorted(t, inputs, outputs, Descending, "composed")
}

func TestRankOfNodeValues(t *testing.T) {
	const p, k = 4, 2
	inputs := [][]int64{{10, 40}, {20}, {30, 50}, {60}}
	// Descending ranks: 60->1, 50->2, 40->3, 30->4, 20->5, 10->6.
	// RankOf(35) = 1 + #{>35} = 4.
	got := make([]int, p)
	_, err := mcb.RunUniform(mcb.Config{P: p, K: k}, func(pr mcb.Node) {
		got[pr.ID()] = RankOfNode(pr, inputs[pr.ID()], 35)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g != 4 {
			t.Errorf("proc %d RankOf(35) = %d, want 4", i, g)
		}
	}
}

func TestTraceConsistency(t *testing.T) {
	// Full-trace integration check: the recorded write count equals Stats,
	// every cycle of the run left events, and the whole run passes the
	// model audit (in-range channels, at most one writer per channel, reads
	// that observe exactly the written words).
	r := dist.NewRNG(45)
	inputs := dist.Values(r, dist.RandomComposition(r, 120, 6))
	rec := trace.New(6, 3, 1<<14)
	_, rep, err := Sort(inputs, SortOptions{K: 3, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	var msgs int64
	cycles := map[int64]bool{}
	for _, e := range rec.Events() {
		cycles[e.Cycle] = true
		if e.Kind == trace.KindWrite {
			msgs++
		}
	}
	if msgs != rep.Stats.Messages {
		t.Fatalf("trace has %d messages, stats say %d", msgs, rep.Stats.Messages)
	}
	if int64(len(cycles)) != rep.Stats.Cycles {
		t.Fatalf("trace has %d cycles, stats say %d", len(cycles), rep.Stats.Cycles)
	}
	if err := mcb.ValidateTrace(rec, 6, 3); err != nil {
		t.Fatalf("full-run trace failed model validation: %v", err)
	}
}

// TestSharedRecorderRunsAreConsecutive: engine runs that share a Recorder
// (the segments of a checkpointed sort, the attempts of a retried one)
// occupy consecutive cycle ranges, so the trace keeps every cycle of every
// run apart and passes the model audit.
func TestSharedRecorderRunsAreConsecutive(t *testing.T) {
	inputs := dist.Values(dist.NewRNG(47), dist.NearlyEven(24, 4))
	distinctCycles := func(rec *trace.Recorder) int64 {
		cycles := map[int64]bool{}
		for _, e := range rec.Events() {
			cycles[e.Cycle] = true
		}
		return int64(len(cycles))
	}
	t.Run("checkpointed-segments", func(t *testing.T) {
		rec := trace.New(4, 2, 1<<12)
		_, rep, err := SortWithRetry(inputs, SortOptions{K: 2, Recorder: rec, Checkpoints: checkpoint.NewMem()})
		if err != nil {
			t.Fatal(err)
		}
		if got := distinctCycles(rec); got != rep.Stats.Cycles {
			t.Errorf("trace covers %d distinct cycles, the run took %d", got, rep.Stats.Cycles)
		}
		if err := mcb.ValidateTrace(rec, 4, 2); err != nil {
			t.Errorf("segmented trace failed model validation: %v", err)
		}
	})
	t.Run("retry-attempts", func(t *testing.T) {
		rec := trace.New(4, 2, 1<<12)
		calls := 0
		opts := SortOptions{K: 2, Recorder: rec, Retry: mcb.RetryPolicy{MaxAttempts: 2},
			Verifier: func(in, out [][]int64, order Order) error {
				if calls++; calls == 1 {
					return errors.New("synthetic rejection")
				}
				return VerifySort(in, out, order)
			}}
		_, rep, err := SortWithRetry(inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Attempts != 2 {
			t.Fatalf("attempts = %d, want 2", rep.Attempts)
		}
		if got, want := distinctCycles(rec), 2*rep.Stats.Cycles; got != want {
			t.Errorf("trace covers %d distinct cycles, want both attempts' %d", got, want)
		}
		if err := mcb.ValidateTrace(rec, 4, 2); err != nil {
			t.Errorf("two-attempt trace failed model validation: %v", err)
		}
	})
}

func TestSortThenSelectAgree(t *testing.T) {
	// Cross-check the two primary contributions against each other on the
	// same workload.
	r := dist.NewRNG(46)
	inputs := dist.Values(r, dist.Geometric(400, 10))
	outputs, _, err := Sort(inputs, SortOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	flat := dist.Flatten(outputs) // descending by construction
	for _, d := range []int{1, 57, 200, 399, 400} {
		got, _, err := Select(inputs, SelectOptions{K: 4, D: d})
		if err != nil {
			t.Fatal(err)
		}
		if got != flat[d-1] {
			t.Errorf("d=%d: select %d, sort says %d", d, got, flat[d-1])
		}
	}
}
