package core

import (
	"context"
	"fmt"
	"time"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/mcb"
	"mcbnet/internal/trace"
	"mcbnet/internal/transport"
)

// Order selects the output order. The paper's canonical order is descending
// (rank 1 is the largest element); Ascending is provided for convenience and
// is implemented by negating the comparison at the boundary.
type Order int

const (
	// Descending is the paper's order: P_1 receives the largest elements.
	Descending Order = iota
	// Ascending reverses the paper's order: P_1 receives the smallest.
	Ascending
)

// Algorithm selects the sorting algorithm.
type Algorithm int

const (
	// AlgoAuto picks an algorithm from (n, p, k, distribution): Columnsort
	// with gathered columns in general, Rank-Sort when only one channel or
	// one column is usable.
	AlgoAuto Algorithm = iota
	// AlgoColumnsortGather is Sections 5.2/7.2: elements are collected into
	// up to k representative processors (phase 0), Columnsort runs among the
	// representatives, and phase 10 redistributes. Needs O(n/k + n_max)
	// auxiliary memory at representatives.
	AlgoColumnsortGather
	// AlgoColumnsortVirtual is Section 6.1: each group of processors acts as
	// one virtual column; sorting phases use Rank-Sort inside each group, so
	// no processor ever stores more than O(n_i) words.
	AlgoColumnsortVirtual
	// AlgoRankSort is the single-channel Rank-Sort of Section 6.1 run over
	// the whole network on channel 0: O(n) cycles and messages.
	AlgoRankSort
	// AlgoMergeSort is the single-channel Merge-Sort of Section 6.1: O(n)
	// cycles and messages with O(1) auxiliary memory per processor.
	AlgoMergeSort
	// AlgoColumnsortRecursive is Section 6.2: recursive virtual columns for
	// inputs too small to use all k channels as columns (n < k^2(k-1)).
	// Requires an even distribution.
	AlgoColumnsortRecursive
)

func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoColumnsortGather:
		return "columnsort-gather"
	case AlgoColumnsortVirtual:
		return "columnsort-virtual"
	case AlgoRankSort:
		return "rank-sort"
	case AlgoMergeSort:
		return "merge-sort"
	case AlgoColumnsortRecursive:
		return "columnsort-recursive"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// SortOptions configures a distributed sort.
type SortOptions struct {
	// K is the number of broadcast channels (1 <= K <= p). Required.
	K int
	// Order selects ascending or descending output; default Descending.
	Order Order
	// Algorithm selects the algorithm; default AlgoAuto.
	Algorithm Algorithm
	// MaxCycles aborts runaway runs (0 = engine default of no limit).
	MaxCycles int64
	// StallTimeout aborts on lock-step protocol bugs (0 = engine default).
	StallTimeout time.Duration
	// Recorder, when non-nil, streams per-cycle events into preallocated
	// ring buffers for JSONL/Perfetto export (see internal/trace and
	// mcb.Config.Recorder). Retry attempts sharing the options append to
	// the same recorder.
	Recorder *trace.Recorder
	// ProfileLabels attaches pprof phase labels to processor goroutines
	// (see mcb.Config.ProfileLabels).
	ProfileLabels bool
	// Faults enables deterministic fault injection (see mcb.FaultPlan).
	Faults *mcb.FaultPlan
	// Retry configures the recovery of SortWithRetry: attempts, backoff and
	// channel degradation (plain Sort runs a single unverified attempt).
	Retry mcb.RetryPolicy
	// Verifier overrides the output check SortWithRetry applies to a
	// finished run. Nil means the default VerifySort (sortedness,
	// cardinality preservation, and multiset-permutation of the input).
	Verifier SortVerifier
	// Checkpoints, when non-nil, is where SortWithRetry saves every phase
	// boundary it accepts (after multiset verification), so that Resume can
	// continue the run in a later process. Without a store the driver keeps
	// its last accepted boundary in memory and a retry resumes from it all
	// the same; only a run of one attempt without a store, which nothing
	// could resume, runs as one segment. Plain Sort ignores it.
	Checkpoints checkpoint.Store
	// Resume makes SortWithRetry first consult Checkpoints.Latest() and, if
	// a compatible snapshot for these inputs exists (same shape, same
	// cardinalities, multiset-consistent), continue from it — the
	// cross-process resume path of cmd/mcbsort -resume. Without Resume, a
	// run clears stale snapshots from Checkpoints and starts fresh.
	Resume bool
	// Transport selects where the processor programs execute. Nil (or
	// transport.Local{}) runs them in-process on this machine's engine —
	// the fast path, byte-for-byte unchanged. A tcp.Client runs this
	// process's processor range against a remote sequencer's engine, with
	// the per-processor results exchanged across the peer group after every
	// successful run (see internal/transport).
	Transport transport.Transport
	// Ctx, when non-nil, cancels the run: cancellation surfaces as a typed
	// *mcb.AbortError (or the typed cause installed via
	// context.WithCancelCause) from the engine, locally and over a tcp
	// transport alike. Nil means context.Background().
	Ctx context.Context
}

func (o SortOptions) engineConfig(p int) mcb.Config {
	return mcb.Config{
		P: p, K: o.K,
		MaxCycles:     o.MaxCycles,
		StallTimeout:  o.StallTimeout,
		Faults:        o.Faults,
		Recorder:      o.Recorder,
		ProfileLabels: o.ProfileLabels,
	}
}

// Report augments the engine stats with algorithm-level accounting.
type Report struct {
	Stats mcb.Stats
	// Algorithm actually used (resolved from AlgoAuto).
	Algorithm Algorithm
	// Columns is the number of Columnsort columns used (0 for non-Columnsort
	// algorithms).
	Columns int
	// ColumnLen is the padded column length m (0 for non-Columnsort).
	ColumnLen int
	// PhaseCycles maps phase labels to the cycle count spent, derived from
	// the engine's per-phase accounting (Stats.Phases carries the full
	// breakdown including messages and per-channel counts).
	PhaseCycles []PhaseCycle
	// Recovery is the retry, checkpoint and channel-degradation account.
	mcb.Recovery
}

// PhaseCycle records one phase boundary.
type PhaseCycle struct {
	Label  string
	Cycles int64
}

// phaser forwards phase-start marks to the node's engine-side accounting
// (mcb.Stats.Phases). A nil phaser silences marking, so an algorithm invoked
// as a subroutine (e.g. the pair sort inside each selection filter phase)
// does not split its caller's phase.
type phaser struct{ pr mcb.Node }

// mark declares that the named phase starts with this processor's next
// cycle operation.
func (r *phaser) mark(label string) {
	if r != nil {
		r.pr.Phase(label)
	}
}

// phaseCyclesFrom projects the engine's per-phase breakdown onto the legacy
// label/cycles pairs of Report.PhaseCycles.
func phaseCyclesFrom(phases []mcb.PhaseStats) []PhaseCycle {
	if len(phases) == 0 {
		return nil
	}
	out := make([]PhaseCycle, len(phases))
	for i, ph := range phases {
		out[i] = PhaseCycle{Label: ph.Name, Cycles: ph.Cycles}
	}
	return out
}
