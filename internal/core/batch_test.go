package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mcbnet/internal/mcb"
)

// batchOracle computes the expected answer of a job sequentially.
func batchOracle(job BatchJob) []int64 {
	sorted := append([]int64(nil), job.Values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] }) // descending
	switch job.Op {
	case BatchSort:
		if job.Order == Ascending {
			for i, j := 0, len(sorted)-1; i < j; i, j = i+1, j-1 {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
		return sorted
	case BatchTopK:
		return sorted[:job.TopK]
	case BatchMedian:
		return []int64{sorted[(len(sorted)+1)/2-1]}
	case BatchRank:
		return []int64{sorted[job.D-1]}
	case BatchMultiSelect:
		out := make([]int64, len(job.Ds))
		for i, d := range job.Ds {
			out[i] = sorted[d-1]
		}
		return out
	}
	return nil
}

// randomBatchJob draws a job with ragged sizes, duplicates and negatives.
func randomBatchJob(rng *rand.Rand) BatchJob {
	n := 1 + rng.Intn(40)
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(rng.Intn(2*n) - n) // dense range forces duplicates
	}
	job := BatchJob{Values: values}
	switch rng.Intn(5) {
	case 0:
		job.Op = BatchSort
		if rng.Intn(2) == 0 {
			job.Order = Ascending
		}
	case 1:
		job.Op = BatchTopK
		job.TopK = 1 + rng.Intn(n)
	case 2:
		job.Op = BatchMedian
	case 3:
		job.Op = BatchRank
		job.D = 1 + rng.Intn(n)
	case 4:
		job.Op = BatchMultiSelect
		job.Ds = make([]int, 1+rng.Intn(3))
		for i := range job.Ds {
			job.Ds[i] = 1 + rng.Intn(n)
		}
	}
	return job
}

// TestBatchMatchesIndividual is the coalescing property: a coalesced batch
// returns byte-identical per-caller answers to individual runs of the same
// jobs — across ragged sizes, all five ops, duplicates, and batch sizes
// from 1 up to past the per-run channel cap (forcing chunking).
func TestBatchMatchesIndividual(t *testing.T) {
	opts := BatchOptions{P: 24, K: 6}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		J := 1 + rng.Intn(9) // up to K+3: exercises the chunking path
		jobs := make([]BatchJob, J)
		for i := range jobs {
			jobs[i] = randomBatchJob(rng)
		}
		batched, err := RunBatch(jobs, opts)
		if err != nil {
			t.Fatalf("trial %d: RunBatch: %v", trial, err)
		}
		individual, err := RunBatch(jobs, BatchOptions{P: opts.P, K: opts.K, NoCoalesce: true})
		if err != nil {
			t.Fatalf("trial %d: RunBatch(NoCoalesce): %v", trial, err)
		}
		for i := range jobs {
			if batched[i].Err != nil {
				t.Fatalf("trial %d job %d (%v): batched error: %v", trial, i, jobs[i].Op, batched[i].Err)
			}
			if individual[i].Err != nil {
				t.Fatalf("trial %d job %d (%v): individual error: %v", trial, i, jobs[i].Op, individual[i].Err)
			}
			want := batchOracle(jobs[i])
			if !reflect.DeepEqual(batched[i].Values, want) {
				t.Errorf("trial %d job %d (%v): batched = %v, oracle = %v", trial, i, jobs[i].Op, batched[i].Values, want)
			}
			if !reflect.DeepEqual(batched[i].Values, individual[i].Values) {
				t.Errorf("trial %d job %d (%v): batched = %v, individual = %v", trial, i, jobs[i].Op, batched[i].Values, individual[i].Values)
			}
		}
		if J >= 2 {
			for i := 0; i < min(J, opts.K); i++ {
				if !batched[i].Batched {
					t.Errorf("trial %d job %d: expected Batched=true in a %d-job batch", trial, i, J)
				}
			}
		}
	}
}

// TestBatchBudgetIsolation is the failure-isolation property: a mid-batch
// typed failure (here a 1-cycle budget, guaranteed to blow) must surface as
// a typed error on the offending job only — siblings fall back to
// individual runs and still answer correctly.
func TestBatchBudgetIsolation(t *testing.T) {
	jobs := []BatchJob{
		{Op: BatchTopK, Values: []int64{5, 1, 9, 3, 9, 2}, TopK: 3},
		{Op: BatchRank, Values: []int64{4, 8, 15, 16, 23, 42}, D: 2, MaxCycles: 1},
		{Op: BatchMedian, Values: []int64{10, 20, 30, 40, 50}},
	}
	results, err := RunBatch(jobs, BatchOptions{P: 12, K: 4})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	var be *mcb.BudgetError
	if results[1].Err == nil || !errors.As(results[1].Err, &be) {
		t.Fatalf("job 1: want *mcb.BudgetError, got %v", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("sibling job %d poisoned: %v", i, results[i].Err)
		}
		if want := batchOracle(jobs[i]); !reflect.DeepEqual(results[i].Values, want) {
			t.Errorf("sibling job %d = %v, want %v", i, results[i].Values, want)
		}
		if !results[i].Batched {
			t.Errorf("sibling job %d: the coalesced answer should stand (Batched=true)", i)
		}
	}
	if results[1].Batched {
		t.Error("job 1: the budget verdict must come from a dedicated run (Batched=false)")
	}
}

// TestBatchValidation: malformed jobs are rejected without an engine run and
// without affecting valid siblings.
func TestBatchValidation(t *testing.T) {
	jobs := []BatchJob{
		{Op: BatchSort, Values: nil},
		{Op: BatchRank, Values: []int64{1, 2}, D: 3},
		{Op: BatchTopK, Values: []int64{1, 2}, TopK: 0},
		{Op: BatchMultiSelect, Values: []int64{1, 2}},
		{Op: BatchMedian, Values: []int64{3, 1, 2}},
	}
	results, err := RunBatch(jobs, BatchOptions{P: 8, K: 2})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for i := 0; i < 4; i++ {
		if results[i].Err == nil {
			t.Errorf("job %d: expected a validation error", i)
		}
	}
	if results[4].Err != nil {
		t.Fatalf("valid job rejected: %v", results[4].Err)
	}
	if got, want := results[4].Values, []int64{2}; !reflect.DeepEqual(got, want) {
		t.Errorf("median = %v, want %v", got, want)
	}
	if _, err := RunBatch(jobs, BatchOptions{P: 2, K: 4}); err == nil {
		t.Error("K > P accepted")
	}
}

// BenchmarkBatchTopK measures the batching win the service benchmark gate
// asserts end to end: 8 small top-k jobs served by one coalesced run vs 8
// individual runs on the same network.
func BenchmarkBatchTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	jobs := make([]BatchJob, 8)
	for i := range jobs {
		values := make([]int64, 32)
		for j := range values {
			values[j] = rng.Int63n(1 << 20)
		}
		jobs[i] = BatchJob{Op: BatchTopK, Values: values, TopK: 8}
	}
	for _, mode := range []struct {
		name       string
		noCoalesce bool
	}{{"batched", false}, {"unbatched", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := BatchOptions{P: 32, K: 8, NoCoalesce: mode.noCoalesce}
			for i := 0; i < b.N; i++ {
				results, err := RunBatch(jobs, opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
