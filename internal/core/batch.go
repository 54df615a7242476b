package core

import (
	"fmt"
	"math"
	"time"

	"mcbnet/internal/mcb"
)

// This file is the batched entry point of the service layer (internal/
// service): several small independent jobs — sort, top-k, median, rank-d,
// multiselect — coalesce into ONE engine run of a pooled MCB(p, k) network.
// The network is partitioned into disjoint subnets (a contiguous processor
// range plus a contiguous channel range per job, the §7.2 uneven-distribution
// machinery absorbing ragged value counts and empty processors), and every
// job's program runs concurrently behind a subnetNode view, so a batch of J
// jobs costs max-of-J cycle counts instead of sum-of-J and pays the per-run
// engine spin-up once. Answers are value-deterministic — a job's output is a
// pure function of its own multiset — so batched and individual runs return
// byte-identical results; the batcher property tests hold it to that.

// BatchOp names one service operation of a BatchJob.
type BatchOp int

const (
	// BatchSort sorts the job's values (Order selects the direction).
	BatchSort BatchOp = iota
	// BatchTopK returns the TopK largest values in descending order.
	BatchTopK
	// BatchMedian returns the paper's median: descending rank ceil(n/2).
	BatchMedian
	// BatchRank returns the value of descending rank D (1 = maximum).
	BatchRank
	// BatchMultiSelect returns the values of the descending ranks Ds, in
	// the order requested.
	BatchMultiSelect
)

func (op BatchOp) String() string {
	switch op {
	case BatchSort:
		return "sort"
	case BatchTopK:
		return "topk"
	case BatchMedian:
		return "median"
	case BatchRank:
		return "rank"
	case BatchMultiSelect:
		return "multiselect"
	}
	return fmt.Sprintf("BatchOp(%d)", int(op))
}

// BatchJob is one caller's request inside a batch.
type BatchJob struct {
	Op     BatchOp
	Values []int64
	// Order applies to BatchSort only (BatchTopK is always descending).
	Order Order
	// TopK is the result size of a BatchTopK job (1 <= TopK <= n).
	TopK int
	// D is the descending rank of a BatchRank job.
	D int
	// Ds are the descending ranks of a BatchMultiSelect job.
	Ds []int
	// MaxCycles is this job's cycle budget: the engine run serving the job
	// aborts with a *mcb.BudgetError beyond it. A coalesced run executes
	// under the loosest sibling budget; a job whose shared run overran its
	// own budget is then re-served by a dedicated run under the exact
	// budget (as is every job of a shared run that failed outright), so a
	// blown budget surfaces only on the job that owns it and never poisons
	// siblings. Zero means no limit.
	MaxCycles int64
}

// BatchResult is the outcome of one job.
type BatchResult struct {
	// Values is the job's answer: the sorted values (BatchSort), the top-k
	// values in descending order (BatchTopK), a single value (BatchMedian,
	// BatchRank) or one value per requested rank (BatchMultiSelect).
	Values []int64
	// Err is the job's typed failure (validation errors, or the engine's
	// error taxonomy surfaced from the individual re-run). Nil on success.
	Err error
	// Batched reports that the coalesced run served this job; false means
	// an individual run did (NoCoalesce, a singleton batch, or the
	// failure-isolation fallback).
	Batched bool
	// BatchSize is the number of jobs sharing the run that served this one.
	BatchSize int
	// Cycles and Messages are the engine cost of the run that served the
	// job (shared by all jobs of a coalesced run).
	Cycles   int64
	Messages int64
}

// BatchOptions describes the pooled network a batch runs on.
type BatchOptions struct {
	// P and K are the pooled network's geometry (1 <= K <= P). A coalesced
	// run serves at most K jobs (each needs a channel), so larger batches
	// are chunked.
	P, K int
	// Deprecated: Engine is ignored; the engine has a single execution
	// mode. The field remains only until the benchmark module stops
	// setting it.
	Engine string
	// StallTimeout mirrors mcb.Config.StallTimeout.
	StallTimeout time.Duration
	// NoCoalesce forces one engine run per job — the unbatched mode the
	// service benchmark compares against.
	NoCoalesce bool
}

// batchGroup is one job's slice of a coalesced run: a contiguous processor
// range [pOff, pOff+pN) and channel range [cOff, cOff+cN) of the pooled
// network, plus the per-processor output capture.
type batchGroup struct {
	job  *BatchJob
	algo Algorithm // resolved sorting algorithm (sort/top-k jobs)
	d    int       // resolved descending rank (median/rank jobs)

	pOff, pN int
	cOff, cN int

	outs   [][]int64 // per-group-processor sorted segments (sort/top-k)
	single []int64   // rank answers, written by group processor 0

	// Run accounting, filled by runBatchGroups.
	runCycles   int64
	runMessages int64
	coalesced   bool
	batchSize   int
}

// RunBatch executes the jobs on an MCB(opts.P, opts.K) network. Unless
// opts.NoCoalesce is set, valid jobs coalesce into shared engine runs of up
// to opts.K jobs each; a typed engine failure of a shared run falls back to
// one individual run per job so the failure lands only on the job that owns
// it. The returned slice is aligned with jobs; it never carries fewer
// entries, and RunBatch itself errors only on an invalid network geometry.
func RunBatch(jobs []BatchJob, opts BatchOptions) ([]BatchResult, error) {
	if opts.P < 1 || opts.K < 1 || opts.K > opts.P {
		return nil, fmt.Errorf("core: batch network must satisfy 1 <= K <= P, got P=%d K=%d", opts.P, opts.K)
	}
	results := make([]BatchResult, len(jobs))
	var valid []int
	for i := range jobs {
		if err := validateBatchJob(&jobs[i]); err != nil {
			results[i].Err = err
			continue
		}
		valid = append(valid, i)
	}

	if opts.NoCoalesce {
		for _, i := range valid {
			runBatchSingle(&jobs[i], &results[i], opts)
		}
		return results, nil
	}
	maxPerRun := opts.K
	for len(valid) > 0 {
		chunk := valid
		if len(chunk) > maxPerRun {
			chunk = chunk[:maxPerRun]
		}
		valid = valid[len(chunk):]
		if len(chunk) == 1 {
			runBatchSingle(&jobs[chunk[0]], &results[chunk[0]], opts)
			continue
		}
		if err := runBatchCoalesced(jobs, chunk, results, opts); err != nil {
			// Failure isolation: re-run every job of the failed shared run
			// individually under its own budget. The offending job earns
			// its typed error; siblings complete.
			for _, i := range chunk {
				runBatchSingle(&jobs[i], &results[i], opts)
			}
		}
	}
	return results, nil
}

// validateBatchJob rejects malformed jobs before any engine run; median jobs
// get their rank resolved here (D := ceil(n/2)) so the program builder only
// sees concrete ranks.
func validateBatchJob(job *BatchJob) error {
	n := len(job.Values)
	if n == 0 {
		return fmt.Errorf("core: batch %s job with no values", job.Op)
	}
	if n >= 1<<31 {
		return fmt.Errorf("core: batch %s job holds too many elements", job.Op)
	}
	switch job.Op {
	case BatchSort:
		if job.Order == Ascending {
			for _, v := range job.Values {
				if v == math.MinInt64 {
					return fmt.Errorf("core: MinInt64 unsupported with Ascending order")
				}
			}
		}
	case BatchTopK:
		if job.TopK < 1 || job.TopK > n {
			return fmt.Errorf("core: top-k size %d out of range [1, %d]", job.TopK, n)
		}
	case BatchMedian:
	case BatchRank:
		if job.D < 1 || job.D > n {
			return fmt.Errorf("core: rank %d out of range [1, %d]", job.D, n)
		}
	case BatchMultiSelect:
		if len(job.Ds) == 0 {
			return fmt.Errorf("core: multiselect job with no ranks")
		}
		for _, d := range job.Ds {
			if d < 1 || d > n {
				return fmt.Errorf("core: rank %d out of range [1, %d]", d, n)
			}
		}
	default:
		return fmt.Errorf("core: unknown batch op %v", job.Op)
	}
	return nil
}

// resolveGroup fills the algorithm/rank resolution of a group from the
// globally known (n, k) of its subnet.
func (g *batchGroup) resolve() {
	n := len(g.job.Values)
	switch g.job.Op {
	case BatchSort, BatchTopK:
		// The driver's AlgoAuto rule over the subnet geometry: Rank-Sort
		// when only one channel or one usable column exists, gathered
		// Columnsort otherwise.
		if g.cN == 1 || maxUsableCols(n, g.cN) == 1 {
			g.algo = AlgoRankSort
		} else {
			g.algo = AlgoColumnsortGather
		}
	case BatchMedian:
		g.d = (n + 1) / 2
	case BatchRank:
		g.d = g.job.D
	}
}

// runBatchSingle serves one job with a dedicated engine run over the full
// pooled network under the job's own budget.
func runBatchSingle(job *BatchJob, res *BatchResult, opts BatchOptions) {
	g := &batchGroup{job: job, pOff: 0, pN: opts.P, cOff: 0, cN: opts.K}
	g.resolve()
	groups := []*batchGroup{g}
	err := runBatchGroups(groups, opts, job.MaxCycles, false)
	collectGroup(g, res, err)
}

// runBatchCoalesced serves the chunk's jobs concurrently in one engine run,
// each on its own subnet. The run's budget is the largest sibling budget
// (unlimited if any job is unlimited): jobs share cycles, so a tighter cap
// would let a cheap sibling's budget abort an expensive job — exact per-job
// budgets are enforced by the individual fallback.
func runBatchCoalesced(jobs []BatchJob, chunk []int, results []BatchResult, opts BatchOptions) error {
	groups := make([]*batchGroup, len(chunk))
	budget := int64(0)
	unlimited := false
	for gi, i := range chunk {
		groups[gi] = &batchGroup{job: &jobs[i]}
		if jobs[i].MaxCycles == 0 {
			unlimited = true
		} else if jobs[i].MaxCycles > budget {
			budget = jobs[i].MaxCycles
		}
	}
	if unlimited {
		budget = 0
	}
	// Partition processors and channels evenly; the first P%J (K%J) groups
	// take the extra. A group never gets more channels than processors.
	J := len(groups)
	pOff, cOff := 0, 0
	for gi, g := range groups {
		g.pN = opts.P / J
		if gi < opts.P%J {
			g.pN++
		}
		g.cN = opts.K / J
		if gi < opts.K%J {
			g.cN++
		}
		if g.cN > g.pN {
			g.cN = g.pN
		}
		g.pOff, g.cOff = pOff, cOff
		pOff += g.pN
		cOff += g.cN
		if g.pN < 1 {
			return fmt.Errorf("core: batch of %d jobs does not fit %d processors", J, opts.P)
		}
		g.resolve()
	}
	err := runBatchGroups(groups, opts, budget, true)
	for gi, i := range chunk {
		collectGroup(groups[gi], &results[i], err)
	}
	if err == nil {
		// Post-run budget enforcement: the shared run executed under the
		// loosest sibling budget, so a job whose own budget is smaller than
		// the cycles actually spent has not had its limit honored yet. Such
		// a job is re-served by a dedicated run under its exact budget — a
		// genuinely over-budget job earns its typed *mcb.BudgetError there
		// without touching the siblings' coalesced answers.
		for gi, i := range chunk {
			if jobs[i].MaxCycles > 0 && groups[gi].runCycles > jobs[i].MaxCycles {
				runBatchSingle(&jobs[i], &results[i], opts)
			}
		}
	}
	return err
}

// runBatchGroups builds the per-processor programs and executes one engine
// run; each group's output captures are filled in on success.
func runBatchGroups(groups []*batchGroup, opts BatchOptions, maxCycles int64, coalesced bool) error {
	progs := make([]func(mcb.Node), opts.P)
	for _, g := range groups {
		g.outs = make([][]int64, g.pN)
		switch g.job.Op {
		case BatchMedian, BatchRank:
			g.single = make([]int64, 1)
		case BatchMultiSelect:
			g.single = make([]int64, len(g.job.Ds))
		}
		for local := 0; local < g.pN; local++ {
			progs[g.pOff+local] = batchProgram(g, local)
		}
	}
	// Processors beyond the partition (only possible when a group was
	// clamped) idle one cycle and leave.
	for i := range progs {
		if progs[i] == nil {
			progs[i] = func(pr mcb.Node) { pr.Idle() }
		}
	}
	cfg := mcb.Config{
		P: opts.P, K: opts.K,
		MaxCycles:    maxCycles,
		StallTimeout: opts.StallTimeout,
	}
	res, err := mcb.Run(cfg, progs)
	for _, g := range groups {
		if res != nil {
			g.runCycles, g.runMessages = res.Stats.Cycles, res.Stats.Messages
		}
		g.coalesced = coalesced
		g.batchSize = len(groups)
	}
	return err
}

// batchProgram is the lock-step program of group-local processor `local`:
// it narrows the real node to the group's subnet view and runs the job's
// collective subroutine over this processor's share of the values.
func batchProgram(g *batchGroup, local int) func(mcb.Node) {
	return func(pr mcb.Node) {
		sub := &subnetNode{pr: pr, pOff: g.pOff, pN: g.pN, cOff: g.cOff, cN: g.cN}
		vals := batchShare(g.job.Values, g.pN, local)
		switch g.job.Op {
		case BatchSort, BatchTopK:
			negate := g.job.Op == BatchSort && g.job.Order == Ascending
			in := vals
			if negate {
				in = make([]int64, len(vals))
				for j, v := range vals {
					in[j] = -v
				}
			}
			mine := makeElems(local, in)
			var sorted []elem
			if g.algo == AlgoRankSort {
				sorted = rankSortWhole(sub, mine, nil)
			} else {
				sorted = gatherSort(sub, mine, nil, nil)
			}
			out := make([]int64, len(sorted))
			for j, e := range sorted {
				if negate {
					out[j] = -e.V
				} else {
					out[j] = e.V
				}
			}
			g.outs[local] = out
		case BatchMedian, BatchRank:
			v := selectFiltering(sub, makeElems(local, vals), g.d, subnetThreshold(g), "").V
			if local == 0 {
				g.single[0] = v
			}
		case BatchMultiSelect:
			mine := makeElems(local, vals)
			for qi, d := range g.job.Ds {
				v := selectFiltering(sub, mine, d, subnetThreshold(g), "").V
				if local == 0 {
					g.single[qi] = v
				}
			}
		}
	}
}

// subnetThreshold is the paper's m* = max(1, p/k) over the subnet geometry.
func subnetThreshold(g *batchGroup) int {
	t := g.pN / g.cN
	if t < 1 {
		t = 1
	}
	return t
}

// batchShare returns group-local processor `local`'s slice of the job's
// values: an even split, the first n%pN processors holding one extra (a
// ragged — possibly empty — distribution the §7.2 machinery accepts).
func batchShare(values []int64, pN, local int) []int64 {
	n := len(values)
	base, rem := n/pN, n%pN
	lo := local*base + min(local, rem)
	cnt := base
	if local < rem {
		cnt++
	}
	return values[lo : lo+cnt]
}

// collectGroup assembles a group's BatchResult after a run. A nil runErr
// means the run completed and the captures are valid; sorting answers are
// flattened in group-processor order (processor 0 holds the largest values
// under the canonical descending order).
func collectGroup(g *batchGroup, res *BatchResult, runErr error) {
	res.Batched = g.coalesced
	res.BatchSize = g.batchSize
	res.Cycles, res.Messages = g.runCycles, g.runMessages
	if runErr != nil {
		res.Err = runErr
		res.Values = nil
		return
	}
	res.Err = nil
	switch g.job.Op {
	case BatchSort, BatchTopK:
		out := make([]int64, 0, len(g.job.Values))
		for _, seg := range g.outs {
			out = append(out, seg...)
		}
		if g.job.Op == BatchTopK {
			out = out[:g.job.TopK]
		}
		res.Values = out
	default:
		res.Values = append([]int64(nil), g.single...)
	}
}

// subnetNode presents a contiguous (processor range, channel range) window
// of a live engine run as a self-contained MCB(pN, cN) network: the batch
// runner's device for executing several independent collective programs
// concurrently in one run without cross-talk. Channel remapping is the whole
// isolation argument — a subroutine can only name channels in [0, K()), and
// those resolve into this group's window. Phase markers are silenced (like
// VProc.Phase, concurrent jobs would misattribute the shared cycle
// accounting); everything else forwards.
type subnetNode struct {
	pr       mcb.Node
	pOff, pN int
	cOff, cN int
}

func (s *subnetNode) ID() int { return s.pr.ID() - s.pOff }
func (s *subnetNode) P() int  { return s.pN }
func (s *subnetNode) K() int  { return s.cN }

func (s *subnetNode) ch(c int) int {
	if c < 0 || c >= s.cN {
		s.pr.Abortf("core: batch subnet channel %d out of range [0, %d)", c, s.cN)
	}
	return s.cOff + c
}

func (s *subnetNode) WriteRead(writeCh int, m mcb.Message, readCh int) (mcb.Message, bool) {
	return s.pr.WriteRead(s.ch(writeCh), m, s.ch(readCh))
}
func (s *subnetNode) Write(writeCh int, m mcb.Message)    { s.pr.Write(s.ch(writeCh), m) }
func (s *subnetNode) Read(readCh int) (mcb.Message, bool) { return s.pr.Read(s.ch(readCh)) }
func (s *subnetNode) Idle()                               { s.pr.Idle() }
func (s *subnetNode) IdleN(n int)                         { s.pr.IdleN(n) }
func (s *subnetNode) Abortf(format string, args ...any)   { s.pr.Abortf(format, args...) }
func (s *subnetNode) AccountAux(delta int64)              { s.pr.AccountAux(delta) }
func (s *subnetNode) Phase(name string)                   {}
func (s *subnetNode) Cycles() int64                       { return s.pr.Cycles() }

var _ mcb.Node = (*subnetNode)(nil)
