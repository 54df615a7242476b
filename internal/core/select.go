package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/mcb"
	"mcbnet/internal/partial"
	"mcbnet/internal/seq"
	"mcbnet/internal/trace"
	"mcbnet/internal/transport"
)

// SelectAlgorithm selects the selection strategy.
type SelectAlgorithm int

const (
	// SelFiltering is the Section 8 algorithm: repeated median-of-medians
	// filtering, then collection of the surviving candidates at P_1.
	// Theta(p log(kn/p)) messages, Theta((p/k) log(kn/p)) cycles.
	SelFiltering SelectAlgorithm = iota
	// SelSortBaseline is the naive approach the paper argues against: sort
	// everything with the Section 5 algorithm and read off the rank —
	// Theta(n) messages.
	SelSortBaseline
)

func (a SelectAlgorithm) String() string {
	if a == SelSortBaseline {
		return "sort-baseline"
	}
	return "filtering"
}

// SelectOptions configures a distributed selection.
type SelectOptions struct {
	// K is the number of broadcast channels.
	K int
	// D is the rank to select, 1-based in the paper's descending order:
	// D = 1 is the maximum, D = ceil(n/2) the median, D = n the minimum.
	D int
	// Threshold is the paper's m*: filtering stops once at most this many
	// candidates remain and the survivors are collected at P_1. Zero means
	// the paper's choice max(1, p/k).
	Threshold int
	// Algorithm selects filtering (default) or the sort baseline.
	Algorithm SelectAlgorithm
	// MaxCycles, StallTimeout, Recorder and ProfileLabels mirror
	// SortOptions.
	MaxCycles     int64
	StallTimeout  time.Duration
	Recorder      *trace.Recorder
	ProfileLabels bool
	// Faults enables deterministic fault injection (see mcb.FaultPlan).
	Faults *mcb.FaultPlan
	// Retry configures the verify-and-retry layer; only SelectWithRetry
	// consults it. With Retry.DegradeOnCrash set, a crashed run is retried
	// with the dead processors' inputs treated as empty.
	Retry mcb.RetryPolicy
	// Verifier overrides the output check SelectWithRetry applies after
	// every successful attempt. Nil means the default VerifySelect (rank
	// verification by recount).
	Verifier SelectVerifier
	// Checkpoints and Resume mirror SortOptions: with a store set,
	// SelectWithRetry runs the filtering algorithm as per-iteration segments
	// with phase-boundary snapshots, resuming from the last accepted one on
	// a typed failure (and across process restarts with Resume).
	Checkpoints checkpoint.Store
	Resume      bool
	// Transport and Ctx mirror SortOptions: where the processor programs
	// execute (nil = in-process) and the context that can cancel the run.
	Transport transport.Transport
	Ctx       context.Context
}

// SelectReport carries the run statistics and filtering diagnostics. The
// diagnostics are derived from the engine's per-phase accounting
// (Stats.Phases): candidate counts are globally known, so the filtering
// program encodes them in its phase names and no side-channel counters are
// needed.
type SelectReport struct {
	Stats     mcb.Stats
	Algorithm SelectAlgorithm
	// FilterPhases is the number of filtering phases executed.
	FilterPhases int
	// Candidates[i] is the candidate count at the start of phase i, followed
	// by the final count entering the termination phase.
	Candidates []int
	// PurgeFractions[i] is the fraction of candidates purged by phase i
	// (Figure 2's invariant: at least 1/4 unless the phase terminated).
	PurgeFractions []float64
	// Filter is the per-filter-phase breakdown: candidates, purge fraction
	// and the engine cost of each iteration.
	Filter []FilterPhase
	// Attempts is the number of attempts the retry layer used (0 or 1 =
	// single attempt).
	Attempts int
	// DeadProcs lists the processors graceful degradation gave up on: their
	// elements are not part of the answered rank space. Empty for a full
	// (non-degraded) result.
	DeadProcs []int
	// Resumes, CheckpointPhase, ReplayedCycles, DegradedK and DeadChannels
	// mirror Report: checkpoint/resume and channel-degradation metadata.
	Resumes         int
	CheckpointPhase string
	ReplayedCycles  int64
	DegradedK       int
	DeadChannels    []int
}

// FilterPhase is the accounting of one filtering iteration, derived from the
// engine phase of the same name.
type FilterPhase struct {
	// Name is the engine phase name (e.g. "select:filter:03:m=117").
	Name string
	// Candidates is the candidate count entering the iteration.
	Candidates int
	// PurgedFraction is the fraction of candidates the iteration purged
	// (1 when it terminated by finding the answer).
	PurgedFraction float64
	// Cycles and Messages are the engine cost of the iteration.
	Cycles   int64
	Messages int64
}

// Select finds the value of descending rank opts.D among the elements
// distributed as inputs over an MCB(len(inputs), opts.K) network.
func Select(inputs [][]int64, opts SelectOptions) (int64, *SelectReport, error) {
	p := len(inputs)
	if err := validateSelect(inputs, opts); err != nil {
		return 0, nil, err
	}
	threshold := selectThreshold(p, opts.K, opts.Threshold)

	report := &SelectReport{Algorithm: opts.Algorithm}
	var result int64
	progs := make([]func(mcb.Node), p)
	for i := range progs {
		in := inputs[i]
		id := i
		progs[i] = func(pr mcb.Node) {
			mine := makeElems(id, in)
			var got elem
			if opts.Algorithm == SelSortBaseline {
				got = selectBySorting(pr, mine, opts.D, "select:")
			} else {
				got = selectFiltering(pr, mine, opts.D, threshold, "select:")
			}
			if id == 0 {
				result = got.V
			}
		}
	}
	cfg := mcb.Config{P: p, K: opts.K, MaxCycles: opts.MaxCycles, StallTimeout: opts.StallTimeout,
		Faults: opts.Faults, Recorder: opts.Recorder, ProfileLabels: opts.ProfileLabels}
	env := opts.runEnv()
	res, err := env.run(cfg, progs)
	if res != nil {
		report.Stats = res.Stats
		report.derivePhaseDiagnostics()
	}
	if err != nil {
		// The partial report covers the cycles that completed before the
		// abort (nil when the engine could not collect them safely).
		if res == nil {
			report = nil
		}
		return 0, report, err
	}
	// The answer was captured at processor 0; under a distributed transport
	// only the peer hosting it has it.
	if err := exchangeScalar(env, "select:result", p, &result); err != nil {
		return 0, report, err
	}
	return result, report, nil
}

// validateSelect checks the inputs and options shared by Select and the
// checkpointed selection driver.
func validateSelect(inputs [][]int64, opts SelectOptions) error {
	p := len(inputs)
	if p == 0 {
		return fmt.Errorf("core: no processors")
	}
	if opts.K < 1 || opts.K > p {
		return fmt.Errorf("core: K must satisfy 1 <= K <= P, got K=%d p=%d", opts.K, p)
	}
	n := 0
	for _, in := range inputs {
		n += len(in)
	}
	if n == 0 {
		return fmt.Errorf("core: the distributed set is empty")
	}
	if opts.D < 1 || opts.D > n {
		return fmt.Errorf("core: rank D=%d out of range [1, %d]", opts.D, n)
	}
	return nil
}

// selectThreshold resolves the filtering threshold m*: the explicit request,
// or the paper's max(1, p/k). The checkpointed driver recomputes it when a
// channel-degraded run continues on k' < k channels.
func selectThreshold(p, k, requested int) int {
	if requested > 0 {
		return requested
	}
	if t := p / k; t > 1 {
		return t
	}
	return 1
}

// derivePhaseDiagnostics rebuilds the filtering diagnostics (FilterPhases,
// Candidates, PurgeFractions, Filter) from Stats.Phases. The filtering
// program encodes the globally known candidate count in each phase name
// ("...filter:NN:m=M", "...collect:m=M"), so the purge fraction of phase i
// is 1 - m_{i+1}/m_i; a "...found" phase closes its iteration with fraction
// 1 (the iteration located the answer exactly).
func (r *SelectReport) derivePhaseDiagnostics() {
	prev := 0
	open := false // a filter iteration awaiting its successor's count
	closeWith := func(f float64) {
		if !open {
			return
		}
		r.Filter[len(r.Filter)-1].PurgedFraction = f
		r.PurgeFractions = append(r.PurgeFractions, f)
		open = false
	}
	for i := range r.Stats.Phases {
		ph := &r.Stats.Phases[i]
		switch {
		case strings.Contains(ph.Name, "filter:"):
			m, ok := phaseCandidates(ph.Name)
			if !ok {
				continue
			}
			closeWith(1 - float64(m)/float64(prev))
			r.FilterPhases++
			r.Candidates = append(r.Candidates, m)
			r.Filter = append(r.Filter, FilterPhase{
				Name: ph.Name, Candidates: m,
				Cycles: ph.Cycles, Messages: ph.Messages,
			})
			prev = m
			open = true
		case strings.Contains(ph.Name, "collect:"):
			m, ok := phaseCandidates(ph.Name)
			if !ok {
				continue
			}
			closeWith(1 - float64(m)/float64(prev))
			r.Candidates = append(r.Candidates, m)
		case strings.HasSuffix(ph.Name, "found"):
			closeWith(1)
		}
	}
}

// phaseCandidates extracts the candidate count from a phase name carrying a
// trailing "m=<count>".
func phaseCandidates(name string) (int, bool) {
	i := strings.LastIndex(name, "m=")
	if i < 0 {
		return 0, false
	}
	m, err := strconv.Atoi(name[i+2:])
	return m, err == nil
}

// selectFiltering is the Section 8 algorithm. Every processor keeps its
// surviving candidates as a descending-sorted list, so the local median is
// an index lookup, counting against med* is a binary search, and purging is
// a truncation. Each filtering phase: sort the (med_i, m_i) pairs with the
// Section 5 sorter, prefix-sum the sorted counts to find the weighted median
// med* (the first processor whose count prefix reaches ceil(m/2) broadcasts
// it), count the candidates >= med* network-wide, then keep one side. At
// least a quarter of the candidates are purged per phase; once at most m*
// remain they are collected at P_1, which selects locally and broadcasts.
//
// phases is the phase-name prefix for engine-side accounting: each filter
// iteration is its own phase, named with the (globally known) candidate
// count so diagnostics derive from mcb.Stats.Phases alone (see
// SelectReport.derivePhaseDiagnostics). Empty disables marking, for use as
// a subroutine inside another program's phases.
func selectFiltering(pr mcb.Node, mine []elem, d, threshold int, phases string) elem {
	cands := append([]elem(nil), mine...)
	seq.Sort(cands, func(a, b elem) bool { return a.greater(b) })
	pr.AccountAux(int64(len(cands)))

	var m int
	if phases != "" {
		m = int(partial.PhasedTotal(pr, int64(len(cands)), partial.Sum, phases+"init"))
	} else {
		m = int(partial.Total(pr, int64(len(cands)), partial.Sum))
	}

	for iter := 0; m > threshold; iter++ {
		var found bool
		var res elem
		cands, d, m, found, res = filterIteration(pr, cands, d, m, iter, phases)
		if found {
			return res
		}
	}
	return collectSurvivors(pr, cands, d, m, phases)
}

// filterIteration runs one filtering phase over the descending-sorted local
// candidate list: weighted-median election, network-wide counting, then a
// purge of one side (or exact termination). It returns the surviving local
// candidates and the updated (d, m); found/res report that med* was the
// answer. The checkpointed driver runs each iteration as its own segment —
// the loop state (cands, d, m, iter) is exactly what a phase-boundary
// snapshot carries.
func filterIteration(pr mcb.Node, cands []elem, d, m, iter int, phases string) ([]elem, int, int, bool, elem) {
	id := pr.ID()
	if phases != "" {
		pr.Phase(fmt.Sprintf("%sfilter:%02d:m=%d", phases, iter, m))
	}
	// Local median: descending rank ceil(mi/2); a dummy below all real
	// elements when no candidates remain here.
	pair := elem{V: math.MinInt64, T: -(int64(id) + 1), P: 0}
	if len(cands) > 0 {
		med := cands[(len(cands)+1)/2-1]
		pair = elem{V: med.V, T: med.T, P: int64(len(cands))}
	}
	// Sort the pairs with the Section 5 sorter (one pair per processor;
	// counts ride in the payload).
	sorted := gatherSort(pr, []elem{pair}, nil, nil)
	myPair := sorted[0]

	// Weighted median: first processor where the count prefix reaches
	// ceil(m/2) broadcasts its median as med*.
	before, at, _ := partial.Sums(pr, myPair.P, partial.Sum)
	half := int64((m + 1) / 2)
	chosen := before < half && at >= half
	var msg mcb.Message
	var ok bool
	if chosen {
		msg, ok = pr.WriteRead(0, elem{V: myPair.V, T: myPair.T}.msg(tagSel), 0)
	} else {
		msg, ok = pr.Read(0)
	}
	if !ok {
		pr.Abortf("core: selection: no weighted median broadcast")
	}
	medStar := elemFromMsg(msg)

	// Count candidates >= med* network-wide. cands is descending, so the
	// local count is the boundary index.
	localGE := lowerBoundSmaller(cands, medStar)
	mGE := int(partial.Total(pr, int64(localGE), partial.Sum))

	switch {
	case mGE == d:
		// med* is the answer: close this iteration's phase with a
		// zero-cycle marker (it rides on the processor's next cycle op,
		// the exit at the latest).
		if phases != "" {
			pr.Phase(phases + "found")
		}
		return cands, d, m, true, medStar
	case mGE > d:
		// The target is above med*: purge everything <= med*. Exactly
		// one candidate equals med*, so mGE-1 remain.
		keep := localGE
		if keep > 0 && cands[keep-1].same(medStar) {
			keep--
		}
		return cands[:keep], d, mGE - 1, false, elem{}
	default:
		// The target is below med*: purge everything >= med*.
		return cands[localGE:], d - mGE, m - mGE, false, elem{}
	}
}

// collectSurvivors is the termination phase: the m surviving candidates are
// collected at P_1 in prefix order; it selects rank d locally and broadcasts
// the result, which every processor returns.
func collectSurvivors(pr mcb.Node, cands []elem, d, m int, phases string) elem {
	id := pr.ID()
	if phases != "" {
		pr.Phase(fmt.Sprintf("%scollect:m=%d", phases, m))
	}
	before, _, _ := partial.Sums(pr, int64(len(cands)), partial.Sum)
	offset := int(before)
	var collected []elem
	if id == 0 {
		collected = append(collected, cands...)
	}
	for c := 0; c < m; c++ {
		switch {
		case id != 0 && c >= offset && c < offset+len(cands):
			pr.Write(0, cands[c-offset].msg(tagSel))
		case id == 0 && c >= len(cands):
			msg, ok := pr.Read(0)
			if !ok {
				pr.Abortf("core: selection: missing candidate %d", c)
			}
			collected = append(collected, elemFromMsg(msg))
		default:
			pr.Idle()
		}
	}
	var resMsg mcb.Message
	var ok bool
	if id == 0 {
		if d < 1 || d > len(collected) {
			pr.Abortf("core: selection: rank %d outside %d survivors", d, len(collected))
		}
		seq.Sort(collected, func(a, b elem) bool { return a.greater(b) })
		resMsg, ok = pr.WriteRead(0, collected[d-1].msg(tagSel), 0)
	} else {
		resMsg, ok = pr.Read(0)
	}
	if !ok {
		pr.Abortf("core: selection: missing result broadcast")
	}
	return elemFromMsg(resMsg)
}

// selectBySorting is the naive baseline: sort everything, then the processor
// owning global rank d broadcasts it. phases is the phase-name prefix for
// engine-side accounting; empty disables marking.
func selectBySorting(pr mcb.Node, mine []elem, d int, phases string) elem {
	ni := len(mine)
	if phases != "" {
		pr.Phase(phases + "sort")
	}
	out := gatherSort(pr, mine, nil, nil)
	// Recover my rank range: sorting preserves cardinalities, so it is the
	// prefix of ni. One more Partial-Sums is cheap relative to the sort.
	var at int64
	if phases != "" {
		_, at, _ = partial.PhasedSums(pr, int64(ni), partial.Sum, phases+"rank")
		pr.Phase(phases + "pick")
	} else {
		_, at, _ = partial.Sums(pr, int64(ni), partial.Sum)
	}
	lo := int(at) - ni
	var msg mcb.Message
	var ok bool
	if d-1 >= lo && d-1 < lo+ni {
		msg, ok = pr.WriteRead(0, out[d-1-lo].msg(tagSel), 0)
	} else {
		msg, ok = pr.Read(0)
	}
	if !ok {
		pr.Abortf("core: baseline selection: missing result broadcast")
	}
	return elemFromMsg(msg)
}
