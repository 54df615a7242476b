// Package service is the long-lived sort/select service behind cmd/mcbd: a
// warm pool of MCB(p, k) network instances serving sort, top-k, median,
// rank-d and multiselect requests, with a request batcher that coalesces
// small jobs arriving within a window into one shared engine run
// (core.RunBatch partitions the network into per-job subnets) and admission
// control that sheds load with typed saturation errors instead of unbounded
// queueing. See DESIGN.md §5 "Service layer".
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mcbnet/internal/core"
	"mcbnet/internal/mcb"
)

// Admission errors. The HTTP layer maps ErrSaturated to 429 and ErrDraining
// to 503, both with a Retry-After derived from Pool.RetryAfter.
var (
	// ErrSaturated: the bounded request queue is full. Back off and retry.
	ErrSaturated = errors.New("service: pool saturated")
	// ErrDraining: the pool is shutting down and admits no new work.
	ErrDraining = errors.New("service: pool draining")
)

// Config describes the warm pool.
type Config struct {
	// Instances is the number of independent pooled networks; concurrent
	// batches run on separate instances (and separate engine runs), so
	// tenants never share a network run with another instance's load.
	// Default 1.
	Instances int
	// P and K are the geometry of every pooled network. Defaults 32, 8.
	P, K int
	// Deprecated: Engine is ignored; the engine has a single execution
	// mode. The field remains only until the benchmark module stops reading
	// it.
	Engine string
	// BatchWindow is how long an instance holds the first job of a batch
	// open for siblings to coalesce with. Default 2ms.
	BatchWindow time.Duration
	// MaxBatch caps jobs per coalesced run; capped at K (each coalesced
	// job needs at least one channel of its own). Default K.
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrSaturated. Default 64.
	QueueDepth int
	// StallTimeout mirrors mcb.Config.StallTimeout for pooled runs.
	StallTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Instances <= 0 {
		c.Instances = 1
	}
	if c.P <= 0 {
		c.P = 32
	}
	if c.K <= 0 {
		c.K = 8
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 || c.MaxBatch > c.K {
		c.MaxBatch = c.K
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// JobRequest is one admitted unit of work.
type JobRequest struct {
	Job core.BatchJob
	// NoBatch forces a dedicated engine run (the unbatched comparison mode
	// of the service benchmark).
	NoBatch bool
	// Faults, when non-nil, runs the job through the verify-and-retry
	// recovery layer under deterministic fault injection (never coalesced:
	// an injected fault must not fail innocent siblings).
	Faults *mcb.FaultPlan
	// Retries is the retry budget of a faulted job (MaxAttempts).
	Retries int
}

// JobOutcome is the served result.
type JobOutcome struct {
	core.BatchResult
	// Attempts is the verify-and-retry attempt count of a faulted job
	// (0 for the plain path).
	Attempts int
}

// task is a queued job plus its completion channel.
type task struct {
	req  JobRequest
	done chan JobOutcome
}

// Pool is a warm pool of MCB network instances consuming a shared bounded
// queue. Each instance owns a batcher loop: it blocks for work, holds the
// batch open for BatchWindow, and serves the coalesced jobs in one engine
// run.
type Pool struct {
	cfg   Config
	queue chan *task
	wg    sync.WaitGroup

	// mu serializes admission against Close: a reader holds it across the
	// draining check and the queue send, so the queue never sees a send
	// after close.
	mu       sync.RWMutex
	draining bool

	// Counters (atomic; see Stats).
	accepted      atomic.Uint64
	rejected      atomic.Uint64
	completed     atomic.Uint64
	failed        atomic.Uint64
	runs          atomic.Uint64
	coalescedRuns atomic.Uint64
	coalescedJobs atomic.Uint64
	faultedJobs   atomic.Uint64
	serveEWMANs   atomic.Int64 // smoothed per-job service time
}

// NewPool starts cfg.Instances batcher loops.
func NewPool(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if cfg.K > cfg.P {
		return nil, fmt.Errorf("service: pool geometry must satisfy K <= P, got P=%d K=%d", cfg.P, cfg.K)
	}
	p := &Pool{cfg: cfg, queue: make(chan *task, cfg.QueueDepth)}
	p.wg.Add(cfg.Instances)
	for i := 0; i < cfg.Instances; i++ {
		go p.instance()
	}
	return p, nil
}

// Config returns the effective (defaulted) pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// Do admits the job and blocks until it is served. It returns a non-nil
// error only for admission failures (ErrSaturated, ErrDraining) or a
// canceled context; job-level failures ride in JobOutcome.Err. A job whose
// context is canceled after admission still completes in the background (the
// pool never abandons queued work).
func (p *Pool) Do(ctx context.Context, req JobRequest) (JobOutcome, error) {
	t := &task{req: req, done: make(chan JobOutcome, 1)}
	if err := p.admit(t); err != nil {
		p.rejected.Add(1)
		return JobOutcome{}, err
	}
	p.accepted.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case out := <-t.done:
		return out, nil
	case <-ctx.Done():
		return JobOutcome{}, ctx.Err()
	}
}

// admit enqueues the task unless the pool is draining or the bounded queue
// is full.
func (p *Pool) admit(t *task) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.draining {
		return ErrDraining
	}
	select {
	case p.queue <- t:
		return nil
	default:
		return ErrSaturated
	}
}

// Close stops admission, drains the queue, and waits for every instance to
// finish its in-flight work. In-flight and already-queued jobs complete
// normally (and correctly) during the drain; only new admissions fail.
func (p *Pool) Close() {
	p.mu.Lock()
	already := p.draining
	p.draining = true
	if !already {
		close(p.queue)
	}
	p.mu.Unlock()
	if !already {
		p.wg.Wait()
	}
}

// RetryAfter estimates when a rejected caller should try again: the queue
// backlog times the smoothed per-job service time, divided across the
// instances, clamped to [50ms, 2s].
func (p *Pool) RetryAfter() time.Duration {
	serve := time.Duration(p.serveEWMANs.Load())
	if serve <= 0 {
		serve = 5 * time.Millisecond
	}
	est := serve * time.Duration(len(p.queue)+1) / time.Duration(p.cfg.Instances)
	if est < 50*time.Millisecond {
		est = 50 * time.Millisecond
	}
	if est > 2*time.Second {
		est = 2 * time.Second
	}
	return est
}

// Stats is a point-in-time snapshot of the pool counters.
type Stats struct {
	Accepted      uint64  `json:"accepted"`
	Rejected      uint64  `json:"rejected"`
	Completed     uint64  `json:"completed"`
	Failed        uint64  `json:"failed"`
	Runs          uint64  `json:"runs"`
	CoalescedRuns uint64  `json:"coalesced_runs"`
	CoalescedJobs uint64  `json:"coalesced_jobs"`
	FaultedJobs   uint64  `json:"faulted_jobs"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCap      int     `json:"queue_cap"`
	Instances     int     `json:"instances"`
	P             int     `json:"p"`
	K             int     `json:"k"`
	AvgServeMS    float64 `json:"avg_serve_ms"`
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Accepted:      p.accepted.Load(),
		Rejected:      p.rejected.Load(),
		Completed:     p.completed.Load(),
		Failed:        p.failed.Load(),
		Runs:          p.runs.Load(),
		CoalescedRuns: p.coalescedRuns.Load(),
		CoalescedJobs: p.coalescedJobs.Load(),
		FaultedJobs:   p.faultedJobs.Load(),
		QueueDepth:    len(p.queue),
		QueueCap:      cap(p.queue),
		Instances:     p.cfg.Instances,
		P:             p.cfg.P,
		K:             p.cfg.K,
		AvgServeMS:    float64(p.serveEWMANs.Load()) / float64(time.Millisecond),
	}
}

// coalescible reports whether a task may share an engine run with siblings.
func coalescible(t *task) bool {
	return !t.req.NoBatch && t.req.Faults == nil
}

// instance is one batcher loop: pull a task, hold the batch open for
// BatchWindow (coalescible tasks accumulate, a non-coalescible arrival
// closes the batch and is served right after), then execute.
func (p *Pool) instance() {
	defer p.wg.Done()
	for {
		t, ok := <-p.queue
		if !ok {
			return
		}
		if !coalescible(t) {
			p.executeSolo(t)
			continue
		}
		batch := []*task{t}
		var straggler *task
		timer := time.NewTimer(p.cfg.BatchWindow)
	collect:
		for len(batch) < p.cfg.MaxBatch {
			select {
			case t2, ok := <-p.queue:
				if !ok {
					break collect
				}
				if !coalescible(t2) {
					straggler = t2
					break collect
				}
				batch = append(batch, t2)
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()
		p.executeBatch(batch)
		if straggler != nil {
			p.executeSolo(straggler)
		}
	}
}

// executeBatch serves coalescible tasks in one core.RunBatch call (which
// itself handles chunking, failure-isolation fallback and per-job budgets).
func (p *Pool) executeBatch(batch []*task) {
	start := time.Now()
	jobs := make([]core.BatchJob, len(batch))
	for i, t := range batch {
		jobs[i] = t.req.Job
	}
	results, err := core.RunBatch(jobs, core.BatchOptions{
		P: p.cfg.P, K: p.cfg.K,
		StallTimeout: p.cfg.StallTimeout,
	})
	p.runs.Add(1)
	if len(batch) > 1 {
		p.coalescedRuns.Add(1)
		p.coalescedJobs.Add(uint64(len(batch)))
	}
	for i, t := range batch {
		out := JobOutcome{}
		if err != nil {
			// Geometry errors cannot happen for a validated pool; surface
			// defensively rather than dropping the task.
			out.Err = err
		} else {
			out.BatchResult = results[i]
		}
		p.finish(t, out, start, len(batch))
	}
}

// executeSolo serves a non-coalescible task: a dedicated engine run, through
// the verify-and-retry recovery layer when fault injection is requested.
func (p *Pool) executeSolo(t *task) {
	start := time.Now()
	var out JobOutcome
	if t.req.Faults != nil {
		p.faultedJobs.Add(1)
		out = p.executeFaulted(t.req)
	} else {
		results, err := core.RunBatch([]core.BatchJob{t.req.Job}, core.BatchOptions{
			P: p.cfg.P, K: p.cfg.K,
			StallTimeout: p.cfg.StallTimeout,
			NoCoalesce:   true,
		})
		if err != nil {
			out.Err = err
		} else {
			out.BatchResult = results[0]
		}
	}
	p.runs.Add(1)
	p.finish(t, out, start, 1)
}

// finish delivers an outcome and maintains the counters and the smoothed
// service time (per job: the batch's wall time divided by its size).
func (p *Pool) finish(t *task, out JobOutcome, start time.Time, batchSize int) {
	if out.Err != nil {
		p.failed.Add(1)
	} else {
		p.completed.Add(1)
	}
	perJob := time.Since(start).Nanoseconds() / int64(batchSize)
	old := p.serveEWMANs.Load()
	if old == 0 {
		p.serveEWMANs.Store(perJob)
	} else {
		p.serveEWMANs.Store(old + (perJob-old)/8)
	}
	t.done <- out
}

// executeFaulted runs one job under fault injection through the retry
// recovery layer: the job's values are distributed over the full pooled
// network and the verified entry points re-execute typed failures, so the
// response is correct (or a typed error) even with an adversarial plan.
func (p *Pool) executeFaulted(req JobRequest) JobOutcome {
	job := req.Job
	inputs := splitInputs(job.Values, p.cfg.P)
	retry := mcb.RetryPolicy{MaxAttempts: req.Retries}
	if retry.MaxAttempts < 1 {
		retry.MaxAttempts = 4
	}
	var out JobOutcome
	out.BatchSize = 1
	switch job.Op {
	case core.BatchSort, core.BatchTopK:
		opts := core.SortOptions{
			K: p.cfg.K, Order: job.Order,
			MaxCycles: job.MaxCycles, StallTimeout: p.cfg.StallTimeout,
			Faults: req.Faults, Retry: retry,
		}
		if job.Op == core.BatchTopK {
			opts.Order = core.Descending
		}
		outputs, rep, err := core.SortWithRetry(inputs, opts)
		if rep != nil {
			out.Cycles, out.Messages = rep.Stats.Cycles, rep.Stats.Messages
			out.Attempts = rep.Attempts
		}
		if err != nil {
			out.Err = err
			return out
		}
		flat := make([]int64, 0, len(job.Values))
		for _, seg := range outputs {
			flat = append(flat, seg...)
		}
		if job.Op == core.BatchTopK {
			flat = flat[:job.TopK]
		}
		out.Values = flat
	case core.BatchMedian, core.BatchRank, core.BatchMultiSelect:
		ds := job.Ds
		switch job.Op {
		case core.BatchMedian:
			ds = []int{(len(job.Values) + 1) / 2}
		case core.BatchRank:
			ds = []int{job.D}
		}
		out.Values = make([]int64, len(ds))
		for i, d := range ds {
			v, rep, err := core.SelectWithRetry(inputs, core.SelectOptions{
				K: p.cfg.K, D: d,
				MaxCycles: job.MaxCycles, StallTimeout: p.cfg.StallTimeout,
				// Each selection re-seeds its plan so repeated queries do
				// not replay the identical fault timeline.
				Faults: reseed(req.Faults, i), Retry: retry,
			})
			if rep != nil {
				out.Cycles += rep.Stats.Cycles
				out.Messages += rep.Stats.Messages
				if rep.Attempts > out.Attempts {
					out.Attempts = rep.Attempts
				}
			}
			if err != nil {
				out.Err = err
				return out
			}
			out.Values[i] = v
		}
	default:
		out.Err = fmt.Errorf("service: unknown op %v", job.Op)
	}
	return out
}

// reseed derives a distinct deterministic plan per sub-query.
func reseed(plan *mcb.FaultPlan, i int) *mcb.FaultPlan {
	if i == 0 {
		return plan
	}
	c := plan.Clone()
	c.Seed = c.Seed*31 + uint64(i)*2654435761
	return c
}

// splitInputs distributes a flat value list evenly over p processors (the
// first n%p hold one extra; trailing processors may be empty).
func splitInputs(values []int64, p int) [][]int64 {
	inputs := make([][]int64, p)
	n := len(values)
	base, rem := n/p, n%p
	off := 0
	for i := 0; i < p; i++ {
		cnt := base
		if i < rem {
			cnt++
		}
		inputs[i] = values[off : off+cnt]
		off += cnt
	}
	return inputs
}

// Percentile returns the q-quantile (0 <= q <= 1) of sorted samples by
// nearest-rank; shared by the load generator and the stats endpoint.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
