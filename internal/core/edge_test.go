package core

import (
	"errors"
	"testing"
	"time"

	"mcbnet/internal/dist"
	"mcbnet/internal/mcb"
	"mcbnet/internal/trace"
)

// Edge-case and failure-injection coverage for the sort/select drivers.

func TestSortAllEqualValues(t *testing.T) {
	inputs := [][]int64{{7, 7, 7}, {7}, {7, 7}}
	for _, algo := range sortAlgos {
		outputs, _, err := Sort(inputs, opts(2, algo))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		for i, out := range outputs {
			if len(out) != len(inputs[i]) {
				t.Fatalf("%v: cardinality changed", algo)
			}
			for _, v := range out {
				if v != 7 {
					t.Fatalf("%v: value %d", algo, v)
				}
			}
		}
	}
}

func TestSortSingletonsEveryK(t *testing.T) {
	// n == p: every processor holds exactly one element (the configuration
	// the selection algorithm uses to sort its (median, count) pairs).
	const p = 12
	r := dist.NewRNG(401)
	inputs := make([][]int64, p)
	for i := range inputs {
		inputs[i] = []int64{int64(r.Intn(100))}
	}
	for k := 1; k <= p; k++ {
		for _, algo := range sortAlgos {
			runSortCase(t, inputs, k, algo, "singletons")
		}
	}
}

func TestSortNegativeValues(t *testing.T) {
	inputs := [][]int64{{-5, 3}, {0, -100}, {42, -1}}
	for _, algo := range sortAlgos {
		runSortCase(t, inputs, 2, algo, "negatives/"+algo.String())
	}
	outputs, _, err := Sort(inputs, SortOptions{K: 2, Order: Ascending})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, inputs, outputs, Ascending, "negatives-asc")
}

func TestSortMaxCyclesAborts(t *testing.T) {
	r := dist.NewRNG(402)
	inputs := dist.Values(r, dist.Even(1024, 8))
	_, _, err := Sort(inputs, SortOptions{K: 2, MaxCycles: 10})
	if !errors.Is(err, mcb.ErrAborted) {
		t.Fatalf("expected cycle-limit abort, got %v", err)
	}
}

func TestSelectMaxCyclesAborts(t *testing.T) {
	r := dist.NewRNG(403)
	inputs := dist.Values(r, dist.Even(1024, 8))
	_, _, err := Select(inputs, SelectOptions{K: 2, D: 512, MaxCycles: 5})
	if !errors.Is(err, mcb.ErrAborted) {
		t.Fatalf("expected cycle-limit abort, got %v", err)
	}
}

func TestSortStallTimeoutConfigured(t *testing.T) {
	// A healthy run completes well before the stall timeout fires.
	r := dist.NewRNG(404)
	inputs := dist.Values(r, dist.Even(64, 4))
	_, _, err := Sort(inputs, SortOptions{K: 2, StallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortAscendingPproperty(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		r := dist.NewRNG(500 + seed)
		p := 2 + r.Intn(6)
		n := p + r.Intn(100)
		inputs := dist.Values(r, dist.RandomComposition(r, n, p))
		outputs, _, err := Sort(inputs, SortOptions{K: 1 + r.Intn(p), Order: Ascending})
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, inputs, outputs, Ascending, "asc-prop")
	}
}

func TestSortLopsidedTwoProcs(t *testing.T) {
	// Extreme two-processor skew: one element vs many.
	big := make([]int64, 200)
	r := dist.NewRNG(405)
	for i := range big {
		big[i] = int64(r.Intn(1000))
	}
	inputs := [][]int64{{500}, big}
	for _, algo := range sortAlgos {
		runSortCase(t, inputs, 2, algo, "lopsided/"+algo.String())
	}
}

func TestSortVirtualManyGroupsFewChannels(t *testing.T) {
	// More processors than channels with a skew that forces uneven group
	// sizes in virtual mode.
	r := dist.NewRNG(406)
	card := dist.Geometric(800, 20)
	inputs := dist.Values(r, card)
	runSortCase(t, inputs, 3, AlgoColumnsortVirtual, "virtual-many-groups")
}

func TestSelectRankOneAndN(t *testing.T) {
	// d=1 (max) and d=n (min) take different purge directions every phase.
	r := dist.NewRNG(407)
	inputs := dist.Values(r, dist.OneHeavy(512, 8, 0.7))
	for _, d := range []int{1, 512} {
		got, _, err := Select(inputs, selOpts(4, d))
		if err != nil {
			t.Fatal(err)
		}
		if want := kthLargestRef(inputs, d); got != want {
			t.Errorf("d=%d: got %d, want %d", d, got, want)
		}
	}
}

func TestSelectWithTraceEnabled(t *testing.T) {
	r := dist.NewRNG(408)
	inputs := dist.Values(r, dist.Even(256, 8))
	rec := trace.New(8, 4, 1<<14)
	_, rep, err := Select(inputs, SelectOptions{K: 4, D: 128, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Total() == 0 || rec.Dropped() != 0 {
		t.Fatalf("recorded %d events, overwrote %d: want a whole, non-empty trace", rec.Total(), rec.Dropped())
	}
	var msgs int64
	for _, e := range rec.Events() {
		if e.Kind == trace.KindWrite {
			msgs++
		}
	}
	if msgs != rep.Stats.Messages {
		t.Errorf("trace messages %d != stats %d", msgs, rep.Stats.Messages)
	}
}

func TestSortNodeAutoOnSingleChannel(t *testing.T) {
	const p = 4
	r := dist.NewRNG(409)
	inputs := dist.Values(r, dist.NearlyEven(40, p))
	outputs := make([][]int64, p)
	if _, err := mcb.RunUniform(mcb.Config{P: p, K: 1}, func(pr mcb.Node) {
		outputs[pr.ID()] = SortNode(pr, inputs[pr.ID()], AlgoAuto)
	}); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, inputs, outputs, Descending, "node-auto-k1")
}

func TestMessageMagnitudeBounded(t *testing.T) {
	// The O(log beta) claim: no broadcast field exceeds a polynomial in the
	// input magnitude and network size. With values < 2^20, tiebreaks are
	// bounded by p<<31, counts by n.
	r := dist.NewRNG(410)
	inputs := dist.Values(r, dist.Even(512, 8))
	_, rep, err := Sort(inputs, opts(4, AlgoColumnsortGather))
	if err != nil {
		t.Fatal(err)
	}
	if lim := int64(8)<<31 | (1 << 21); rep.Stats.MaxAbs > lim {
		t.Errorf("MaxAbs %d exceeds the O(log beta) word bound %d", rep.Stats.MaxAbs, lim)
	}
}

// TestSortQuarterMillion exercises the engine and algorithm at a larger
// scale; skipped under -short.
func TestSortQuarterMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale run")
	}
	const n, p, k = 262144, 16, 16
	r := dist.NewRNG(999)
	inputs := dist.Values(r, dist.Even(n, p))
	outputs, rep, err := Sort(inputs, SortOptions{K: k, StallTimeout: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check boundaries rather than the full O(n log n) reference sort.
	prev := int64(1 << 62)
	for i := range outputs {
		if outputs[i][0] > prev {
			t.Fatalf("boundary violation at processor %d", i)
		}
		for j := 1; j < len(outputs[i]); j++ {
			if outputs[i][j] > outputs[i][j-1] {
				t.Fatalf("intra-processor order violation at %d/%d", i, j)
			}
		}
		prev = outputs[i][len(outputs[i])-1]
	}
	if ratio := float64(rep.Stats.Cycles) / float64(n/k); ratio > 8 {
		t.Errorf("cycles/(n/k) = %.2f at large scale", ratio)
	}
}

func TestSortWithEmptyProcessors(t *testing.T) {
	// The paper's n_i > 0 assumption is w.l.o.g.; the implementation accepts
	// empty processors directly.
	inputs := [][]int64{{9, 3}, {}, {7, 1, 5}, {}, {2}}
	for _, algo := range sortAlgos {
		for k := 1; k <= 3; k++ {
			outputs, _, err := Sort(inputs, opts(k, algo))
			if err != nil {
				t.Fatalf("%v k=%d: %v", algo, k, err)
			}
			checkSorted(t, inputs, outputs, Descending, "empty/"+algo.String())
			if len(outputs[1]) != 0 || len(outputs[3]) != 0 {
				t.Fatalf("%v: empty processors received elements", algo)
			}
		}
	}
}

func TestSortAllButOneEmpty(t *testing.T) {
	inputs := [][]int64{{}, {}, {4, 1, 3, 2}, {}}
	for _, algo := range sortAlgos {
		outputs, _, err := Sort(inputs, opts(2, algo))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		checkSorted(t, inputs, outputs, Descending, "one-holder/"+algo.String())
	}
}

func TestSelectWithEmptyProcessors(t *testing.T) {
	inputs := [][]int64{{9, 3}, {}, {7, 1, 5}, {}}
	for d := 1; d <= 5; d++ {
		got, _, err := Select(inputs, selOpts(2, d))
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if want := kthLargestRef(inputs, d); got != want {
			t.Errorf("d=%d: got %d, want %d", d, got, want)
		}
	}
}

func TestEmptySetRejected(t *testing.T) {
	if _, _, err := Sort([][]int64{{}, {}}, opts(1, AlgoAuto)); err == nil {
		t.Error("expected error for empty set (sort)")
	}
	if _, _, err := Select([][]int64{{}}, selOpts(1, 1)); err == nil {
		t.Error("expected error for empty set (select)")
	}
}

func TestSortEmptyProcsProperty(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		r := dist.NewRNG(600 + seed)
		p := 3 + r.Intn(8)
		inputs := make([][]int64, p)
		n := 0
		for i := range inputs {
			ni := r.Intn(12) // zero allowed
			for j := 0; j < ni; j++ {
				inputs[i] = append(inputs[i], int64(r.Intn(50)))
			}
			n += ni
		}
		if n == 0 {
			inputs[0] = []int64{1}
		}
		algo := sortAlgos[int(seed)%len(sortAlgos)]
		outputs, _, err := Sort(inputs, opts(1+r.Intn(p), algo))
		if err != nil {
			t.Fatalf("seed %d %v: %v", seed, algo, err)
		}
		checkSorted(t, inputs, outputs, Descending, "empty-prop")
	}
}

func TestSortAdversarialAlternating(t *testing.T) {
	// Theorem 4's distribution: the heavy processor holds every other rank.
	card := dist.OneHeavy(200, 8, 0.4)
	inputs := dist.AdversarialAlternating(card, 0)
	for _, algo := range sortAlgos {
		rep := runSortCase(t, inputs, 4, algo, "thm4/"+algo.String())
		// Theorem 4: at least min(n_max, n-n_max) cycles regardless of k.
		if lb := int64(min(card.Max(), 200-card.Max())); rep.Stats.Cycles < lb {
			t.Errorf("%v: cycles %d below the Theorem 4 bound %d", algo, rep.Stats.Cycles, lb)
		}
	}
}
