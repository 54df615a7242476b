// Package lockstep is the synchronous kernel under the Section 9 comparison
// models (Shout-Echo, CREW and IPBAM). It runs one goroutine per processor;
// in every step each live processor submits one op, and the last to arrive
// resolves the whole step with the model's resolve function before releasing
// the others. A model supplies only its op and result types and that
// function. The kernel owns the barrier, processors leaving when their
// program returns, first-error-wins aborts, panics, the step limit and the
// stall watchdog.
package lockstep

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterises one run. Models fill it from their own configs.
type Config struct {
	// MaxSteps aborts the run once more than this many steps have
	// completed (0 = no limit).
	MaxSteps int64
	// StallTimeout aborts the run when no step completes for this long
	// (default 30s).
	StallTimeout time.Duration
	// Unit names a step in error messages: "step", "slot" or "round".
	Unit string
	// ErrAborted is the model's sentinel; every error Run returns wraps it.
	ErrAborted error
}

// Proc is one processor's handle.
type Proc[O, R any] struct {
	id int
	k  *kernel[O, R]
}

// abortPanic unwinds a processor's program once the run has failed.
type abortPanic struct{}

type kernel[O, R any] struct {
	cfg     Config
	resolve func(ops []O, active []bool, results []R) error
	ops     []O
	active  []bool
	results []R

	mu       sync.Mutex
	arrived  int
	expected int           // live processors
	leaving  int           // processors whose program returned this step
	gen      chan struct{} // closed once the current step is resolved
	err      error         // first abort; set together with closing aborted
	aborted  chan struct{}
	done     chan struct{} // closed when the last processor leaves

	// steps is written by whichever processor resolves a step and read by
	// the stall watchdog in Run, hence atomic.
	steps atomic.Int64
}

// ID returns the processor index in [0, P).
func (p *Proc[O, R]) ID() int { return p.id }

// Step submits op, waits until every live processor has submitted one and
// the step is resolved, and returns this processor's result. Once the run
// has failed, Step unwinds the program instead of returning.
func (p *Proc[O, R]) Step(op O) R {
	k := p.k
	if g, last := k.arrive(p.id, op, true); last {
		k.advance(g)
	} else {
		select {
		case <-g:
		case <-k.aborted:
		}
	}
	if k.failure() != nil {
		panic(abortPanic{})
	}
	return k.results[p.id]
}

// Abortf fails the whole run with an error naming this processor, then
// unwinds its program.
func (p *Proc[O, R]) Abortf(format string, args ...any) {
	p.k.abort(fmt.Errorf("%w: processor %d: %s", p.k.cfg.ErrAborted, p.id, fmt.Sprintf(format, args...)))
	panic(abortPanic{})
}

// exit leaves the run after the program returns: the processor counts as
// arrived at the current step, inactive, and is not waited for again.
func (p *Proc[O, R]) exit() {
	var none O
	if g, last := p.k.arrive(p.id, none, false); last {
		p.k.advance(g)
	}
}

// arrive records processor id's op for the current step and reports the
// step's barrier channel and whether id is the last live processor to
// arrive, which must then call advance.
func (k *kernel[O, R]) arrive(id int, op O, active bool) (chan struct{}, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.err != nil {
		panic(abortPanic{})
	}
	k.ops[id] = op
	k.active[id] = active
	if !active {
		k.leaving++
	}
	k.arrived++
	return k.gen, k.arrived == k.expected
}

// advance resolves the step whose barrier is g, retires the processors that
// left in it, rearms the barrier and releases the waiters. Every other live
// processor is blocked on g meanwhile, so ops, active and results need no
// lock here. A step in which every arriver was leaving resolves nothing and
// does not count. If resolve fails or panics, g stays open and the waiters
// leave on the abort instead, never with a stale result.
func (k *kernel[O, R]) advance(g chan struct{}) {
	if slices.Contains(k.active, true) {
		if err := k.resolve(k.ops, k.active, k.results); err != nil {
			k.abort(err)
			return
		}
		k.steps.Add(1)
	}
	k.mu.Lock()
	k.expected -= k.leaving
	k.leaving, k.arrived = 0, 0
	k.gen = make(chan struct{})
	live := k.expected
	k.mu.Unlock()
	if limit := k.cfg.MaxSteps; limit > 0 && k.steps.Load() > limit {
		k.abort(fmt.Errorf("%w: %s limit %d exceeded", k.cfg.ErrAborted, k.cfg.Unit, limit))
	} else if live == 0 {
		close(k.done)
	}
	close(g)
}

func (k *kernel[O, R]) abort(err error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.err == nil {
		k.err = err
		close(k.aborted)
	}
}

func (k *kernel[O, R]) failure() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.err
}

// Run runs programs[id] as processor id, one goroutine each, in lock step,
// and returns the number of steps or the first error, which wraps
// cfg.ErrAborted. A processor leaves when its program returns.
//
// In each step, every live processor calls Step once; the last to arrive
// calls resolve, which must fill results[id] for each processor that reads
// one. active[id] is false for a processor that did not submit an op this
// step because it is leaving or has left; resolve is not called when no
// processor is active. resolve never runs concurrently with itself, but it
// runs on the goroutine of whichever processor arrived last, and a non-nil
// error from it aborts the run.
func Run[O, R any](cfg Config, resolve func(ops []O, active []bool, results []R) error, programs []func(*Proc[O, R])) (int64, error) {
	p := len(programs)
	k := &kernel[O, R]{
		cfg:      cfg,
		resolve:  resolve,
		ops:      make([]O, p),
		active:   make([]bool, p),
		results:  make([]R, p),
		expected: p,
		gen:      make(chan struct{}),
		aborted:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	var wg sync.WaitGroup
	for id, prog := range programs {
		pr := &Proc[O, R]{id: id, k: k}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortPanic); !ok {
						k.abort(fmt.Errorf("%w: processor %d panicked: %v", cfg.ErrAborted, id, r))
					}
				}
			}()
			prog(pr)
			pr.exit()
		}()
	}

	stall := cfg.StallTimeout
	if stall == 0 {
		stall = 30 * time.Second
	}
	tick := time.NewTicker(stall)
	defer tick.Stop()
	last := int64(-1)
	for {
		select {
		case <-k.done:
			wg.Wait()
			return k.steps.Load(), k.failure()
		case <-k.aborted:
			// A wedged program cannot be interrupted: wait a bounded time
			// for the others to unwind.
			drained := make(chan struct{})
			go func() { wg.Wait(); close(drained) }()
			select {
			case <-drained:
			case <-time.After(2 * time.Second):
			}
			return k.steps.Load(), k.failure()
		case <-tick.C:
			if cur := k.steps.Load(); cur != last {
				last = cur
			} else {
				k.abort(fmt.Errorf("%w: no %s completed in %v", cfg.ErrAborted, cfg.Unit, stall))
			}
		}
	}
}
