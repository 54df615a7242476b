package core

import (
	"time"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/mcb"
)

// This file holds the policy helpers of the recovery drivers, SortWithRetry
// (sortseg.go) and SelectWithRetry (selectseg.go). Both run a plan of
// segments, each on a fresh network (a new engine, fresh goroutines, fresh
// stall-watchdog baseline) under the attempt's fault plan; a segment's result
// is accepted only after verification, and a failure is retried up to
// Retry.MaxAttempts times, so a faulted run is detected and re-executed
// rather than silently wrong.

func retryAttempts(pol mcb.RetryPolicy) int {
	if pol.MaxAttempts < 1 {
		return 1
	}
	return pol.MaxAttempts
}

// resumable reports whether a run's phase boundaries can be resumed from: by
// a later attempt (more than one is allowed) or by a later process (a store
// is set). A run that can do neither executes its algorithm as one segment,
// since a boundary would buy nothing for its extra engine run and, under a
// distributed transport, its state exchange.
func resumable(maxAtt int, store checkpoint.Store) bool {
	return maxAtt > 1 || store != nil
}

// retryBackoff sleeps before retry attempt a (1-based attempt index of the
// upcoming attempt). The schedule — capped exponential doubling with the
// policy's deterministic seeded jitter — is mcb.RetryPolicy.BackoffFor, the
// single implementation shared with the engine-level retry layer and the
// tcp transport's dial loop.
func retryBackoff(pol mcb.RetryPolicy, a int) {
	if a <= 0 {
		return
	}
	if d := pol.BackoffFor(a - 1); d > 0 {
		time.Sleep(d)
	}
}

// noStore is the checkpoint store of a run without one: the driver holds
// its last accepted boundary in memory, and nothing is saved.
type noStore struct{}

func (noStore) Save(*checkpoint.Snapshot) error       { return nil }
func (noStore) Latest() (*checkpoint.Snapshot, error) { return nil, nil }
func (noStore) Clear() error                          { return nil }

// storeOrNone returns s, or noStore when s is nil.
func storeOrNone(s checkpoint.Store) checkpoint.Store {
	if s == nil {
		return noStore{}
	}
	return s
}

// emptyProcs returns a copy of inputs with the given processors' lists
// emptied (the processor count is unchanged: the protocols accept empty
// processors).
func emptyProcs(inputs [][]int64, procs []int) [][]int64 {
	out := append([][]int64(nil), inputs...)
	for _, id := range procs {
		if id >= 0 && id < len(out) {
			out[id] = nil
		}
	}
	return out
}

// mergeProcs unions two processor-id lists, keeping increasing order.
func mergeProcs(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, lists := range [2][]int{a, b} {
		for _, id := range lists {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
