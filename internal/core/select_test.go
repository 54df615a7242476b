package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"mcbnet/internal/dist"
	"mcbnet/internal/mcb"
	"mcbnet/internal/seq"
)

func selOpts(k, d int) SelectOptions {
	return SelectOptions{K: k, D: d, StallTimeout: 20 * time.Second}
}

// kthLargestRef is the reference answer on the flattened multiset.
func kthLargestRef(inputs [][]int64, d int) int64 {
	flat := dist.Flatten(inputs)
	seq.SortInt64Desc(flat)
	return flat[d-1]
}

func TestSelectTiny(t *testing.T) {
	inputs := [][]int64{{9, 3}, {7}, {1, 5, 4}}
	for d := 1; d <= 6; d++ {
		got, _, err := Select(inputs, selOpts(2, d))
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if want := kthLargestRef(inputs, d); got != want {
			t.Errorf("d=%d: got %d, want %d", d, got, want)
		}
	}
}

func TestSelectSingleProcessor(t *testing.T) {
	inputs := [][]int64{{5, 2, 8, 1}}
	got, _, err := Select(inputs, selOpts(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("got %d, want 5", got)
	}
}

func TestSelectMedianVariousConfigs(t *testing.T) {
	r := dist.NewRNG(201)
	configs := []struct{ n, p, k int }{
		{64, 8, 2}, {256, 16, 4}, {1000, 16, 4}, {777, 13, 3},
		{2048, 32, 8}, {100, 100, 10},
	}
	for _, c := range configs {
		card := dist.NearlyEven(c.n, c.p)
		inputs := dist.Values(r, card)
		d := (c.n + 1) / 2
		got, rep, err := Select(inputs, selOpts(c.k, d))
		if err != nil {
			t.Fatalf("n=%d p=%d k=%d: %v", c.n, c.p, c.k, err)
		}
		if want := kthLargestRef(inputs, d); got != want {
			t.Errorf("n=%d p=%d k=%d: got %d, want %d", c.n, c.p, c.k, got, want)
		}
		if rep.FilterPhases == 0 && c.n > c.p {
			t.Errorf("n=%d: expected at least one filtering phase", c.n)
		}
	}
}

func TestSelectUnevenAndDuplicates(t *testing.T) {
	r := dist.NewRNG(202)
	for _, card := range []dist.Cardinalities{
		dist.OneHeavy(500, 10, 0.6),
		dist.Geometric(300, 8),
		dist.RandomComposition(r, 400, 12),
	} {
		n := card.N()
		inputs := dist.ValuesWithDuplicates(r, card)
		for _, d := range []int{1, n / 4, (n + 1) / 2, n - 1, n} {
			got, _, err := Select(inputs, selOpts(4, d))
			if err != nil {
				t.Fatalf("d=%d: %v", d, err)
			}
			if want := kthLargestRef(inputs, d); got != want {
				t.Errorf("d=%d: got %d, want %d", d, got, want)
			}
		}
	}
}

func TestSelectExtremeRanks(t *testing.T) {
	r := dist.NewRNG(203)
	inputs := dist.Values(r, dist.Even(256, 8))
	for _, d := range []int{1, 2, 255, 256} {
		got, _, err := Select(inputs, selOpts(4, d))
		if err != nil {
			t.Fatal(err)
		}
		if want := kthLargestRef(inputs, d); got != want {
			t.Errorf("d=%d: got %d, want %d", d, got, want)
		}
	}
}

func TestSelectSortBaseline(t *testing.T) {
	r := dist.NewRNG(204)
	inputs := dist.Values(r, dist.RandomComposition(r, 300, 8))
	d := 150
	got, rep, err := Select(inputs, SelectOptions{K: 4, D: d, Algorithm: SelSortBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if want := kthLargestRef(inputs, d); got != want {
		t.Errorf("got %d, want %d", got, want)
	}
	if rep.Algorithm != SelSortBaseline {
		t.Errorf("algorithm = %v", rep.Algorithm)
	}
}

func TestSelectFilteringBeatsBaselineOnMessages(t *testing.T) {
	// Section 8's motivation: filtering uses O(p log(kn/p)) messages versus
	// Theta(n) for sorting.
	r := dist.NewRNG(205)
	n, p, k := 16384, 16, 4
	inputs := dist.Values(r, dist.Even(n, p))
	d := n / 2
	_, repF, err := Select(inputs, selOpts(k, d))
	if err != nil {
		t.Fatal(err)
	}
	_, repS, err := Select(inputs, SelectOptions{K: k, D: d, Algorithm: SelSortBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if repF.Stats.Messages*4 > repS.Stats.Messages {
		t.Errorf("filtering %d messages not well below baseline %d",
			repF.Stats.Messages, repS.Stats.Messages)
	}
	if repF.Stats.Cycles >= repS.Stats.Cycles {
		t.Errorf("filtering %d cycles not below baseline %d",
			repF.Stats.Cycles, repS.Stats.Cycles)
	}
}

func TestSelectPurgeFractionInvariant(t *testing.T) {
	// Figure 2 / Section 8.2: every filtering phase purges at least 1/4 of
	// the candidates.
	r := dist.NewRNG(206)
	inputs := dist.Values(r, dist.Even(4096, 16))
	_, rep, err := Select(inputs, selOpts(4, 2048))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilterPhases < 2 {
		t.Fatalf("expected multiple filtering phases, got %d", rep.FilterPhases)
	}
	for i, f := range rep.PurgeFractions {
		if f < 0.25-1e-9 {
			t.Errorf("phase %d purged only %.3f < 1/4 (candidates %v)", i, f, rep.Candidates)
		}
	}
	// Phase count bound: O(log_{4/3}(n/m*)).
	bound := int(math.Ceil(math.Log(float64(4096))/math.Log(4.0/3.0))) + 2
	if rep.FilterPhases > bound {
		t.Errorf("%d filtering phases > bound %d", rep.FilterPhases, bound)
	}
}

func TestSelectComplexity(t *testing.T) {
	// Cor 7: Theta(p log(kn/p)) messages and Theta((p/k) log(kn/p)) cycles.
	r := dist.NewRNG(207)
	for _, c := range []struct{ n, p, k int }{
		{4096, 16, 4}, {16384, 16, 4}, {16384, 64, 8},
	} {
		inputs := dist.Values(r, dist.Even(c.n, c.p))
		_, rep, err := Select(inputs, selOpts(c.k, c.n/2))
		if err != nil {
			t.Fatal(err)
		}
		logTerm := math.Log2(float64(c.k*c.n) / float64(c.p))
		msgBound := int64(40 * float64(c.p) * logTerm)
		cycBound := int64(60 * (float64(c.p)/float64(c.k) + math.Log2(float64(c.p)) + float64(c.k)) * logTerm)
		if rep.Stats.Messages > msgBound {
			t.Errorf("n=%d p=%d k=%d: %d messages > %d", c.n, c.p, c.k, rep.Stats.Messages, msgBound)
		}
		if rep.Stats.Cycles > cycBound {
			t.Errorf("n=%d p=%d k=%d: %d cycles > %d", c.n, c.p, c.k, rep.Stats.Cycles, cycBound)
		}
	}
}

func TestSelectThresholdOverride(t *testing.T) {
	r := dist.NewRNG(208)
	inputs := dist.Values(r, dist.Even(512, 8))
	// Large threshold: no filtering, straight to collection.
	got, rep, err := Select(inputs, SelectOptions{K: 2, D: 100, Threshold: 512})
	if err != nil {
		t.Fatal(err)
	}
	if want := kthLargestRef(inputs, 100); got != want {
		t.Errorf("got %d, want %d", got, want)
	}
	if rep.FilterPhases != 0 {
		t.Errorf("expected 0 filtering phases, got %d", rep.FilterPhases)
	}
}

func TestSelectValidation(t *testing.T) {
	if _, _, err := Select(nil, selOpts(1, 1)); err == nil {
		t.Error("expected error for no processors")
	}
	if _, _, err := Select([][]int64{{1}}, selOpts(1, 0)); err == nil {
		t.Error("expected error for D=0")
	}
	if _, _, err := Select([][]int64{{1}}, selOpts(1, 2)); err == nil {
		t.Error("expected error for D>n")
	}
	if _, _, err := Select([][]int64{{}, {}}, selOpts(1, 1)); err == nil {
		t.Error("expected error for an entirely empty set")
	}
}

func TestSelectProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := dist.NewRNG(seed)
		p := 2 + r.Intn(8)
		n := p + r.Intn(200)
		k := 1 + r.Intn(p)
		card := dist.RandomComposition(r, n, p)
		var inputs [][]int64
		if seed%2 == 0 {
			inputs = dist.Values(r, card)
		} else {
			inputs = dist.ValuesWithDuplicates(r, card)
		}
		d := 1 + r.Intn(n)
		got, _, err := Select(inputs, selOpts(k, d))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return got == kthLargestRef(inputs, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectDeterministic(t *testing.T) {
	r := dist.NewRNG(209)
	inputs := dist.Values(r, dist.Even(1024, 16))
	_, a, err := Select(inputs, selOpts(4, 512))
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Select(inputs, selOpts(4, 512))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Messages != b.Stats.Messages {
		t.Errorf("nondeterministic: %v vs %v", a.Stats, b.Stats)
	}
}

func TestMultiSelect(t *testing.T) {
	r := dist.NewRNG(210)
	inputs := dist.Values(r, dist.RandomComposition(r, 600, 12))
	ds := []int{1, 300, 599, 300, 42}
	got, rep, err := MultiSelect(inputs, ds, selOpts(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if want := kthLargestRef(inputs, d); got[i] != want {
			t.Errorf("ds[%d]=%d: got %d, want %d", i, d, got[i], want)
		}
	}
	// One run must be cheaper than the sum of the phases' engine overheads
	// is hard to assert directly; instead check the cost is bounded by
	// len(ds) independent selections.
	single, srep, err := Select(inputs, selOpts(4, 300))
	if err != nil {
		t.Fatal(err)
	}
	_ = single
	if rep.Stats.Cycles > int64(len(ds)+1)*srep.Stats.Cycles {
		t.Errorf("multi-select cycles %d exceed %d x single (%d)", rep.Stats.Cycles, len(ds)+1, srep.Stats.Cycles)
	}
}

// TestMultiSelectHonoursFaults: MultiSelect runs under opts.Faults like
// Select does, so a scripted crash fails the run with a typed CrashError and
// the partial report of the cycles before it.
func TestMultiSelectHonoursFaults(t *testing.T) {
	r := dist.NewRNG(211)
	inputs := dist.Values(r, dist.NearlyEven(64, 8))
	opts := selOpts(2, 0)
	opts.Faults = &mcb.FaultPlan{Crashes: []mcb.Crash{{Proc: 1, Cycle: 0}}}
	if _, _, err := Select(inputs, SelectOptions{K: 2, D: 32, Faults: opts.Faults}); !errors.As(err, new(*mcb.CrashError)) {
		t.Fatalf("Select under the crash plan: err = %v, want a *mcb.CrashError", err)
	}
	got, rep, err := MultiSelect(inputs, []int{1, 32}, opts)
	var ce *mcb.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("MultiSelect under the crash plan: values %v, err = %v, want a *mcb.CrashError", got, err)
	}
	if rep == nil {
		t.Fatal("MultiSelect returned no partial report with its error")
	}
}

func TestMultiSelectValidation(t *testing.T) {
	if _, _, err := MultiSelect([][]int64{{1}}, nil, selOpts(1, 0)); err == nil {
		t.Error("expected error for empty rank list")
	}
	if _, _, err := MultiSelect([][]int64{{1}}, []int{2}, selOpts(1, 0)); err == nil {
		t.Error("expected error for rank out of range")
	}
	if _, _, err := MultiSelect(nil, []int{1}, selOpts(1, 0)); err == nil {
		t.Error("expected error for no processors")
	}
}
