// Package crew implements a synchronous Concurrent-Read Exclusive-Write
// (CREW) shared-memory machine ([Snir83] in the paper) and an adapter that
// presents it as an MCB network, realizing Section 9's observation: the
// Columnsort algorithm for even distributions can be used in the CREW model
// with only p shared memory cells of auxiliary storage.
//
// The machine has P processors and a fixed number of shared cells. Each
// synchronous step, every processor may read one cell and write one cell;
// reads observe the memory state from before the step's writes; two writes
// to the same cell in the same step violate exclusive-write and fail the
// computation (mirroring the MCB collision rule).
package crew

import (
	"errors"
	"fmt"
	"time"

	"mcbnet/internal/lockstep"
)

// Value is the content of one shared memory cell: a constant number of
// machine words, matching the MCB message size.
type Value struct {
	A, B, C, D int64
}

// Config describes the machine.
type Config struct {
	// P is the number of processors.
	P int
	// Cells is the shared memory size.
	Cells int
	// MaxSteps aborts runaway computations (0 = no limit).
	MaxSteps int64
	// StallTimeout aborts when no step completes for this long (default 30s).
	StallTimeout time.Duration
}

// Stats counts the machine's costs.
type Stats struct {
	// Steps is the number of synchronous steps.
	Steps int64
	// Reads and Writes count cell accesses.
	Reads, Writes int64
	// CellsTouched is the number of distinct cells ever written — the
	// auxiliary shared-memory footprint.
	CellsTouched int
}

// Result is the outcome of a run.
type Result struct {
	Stats Stats
}

// ErrAborted is wrapped by all abort errors.
var ErrAborted = errors.New("crew: run aborted")

const (
	opRead uint8 = 1 << iota
	opWrite
)

// stepOp is one processor's access in a step: kind is a bitmask of
// opRead|opWrite, and 0 idles.
type stepOp struct {
	kind      uint8
	readCell  int
	writeCell int
	writeVal  Value
}

// Proc is the per-processor handle. Each step every live processor must
// call exactly one of Step, Read, Write or Idle.
type Proc struct {
	lp *lockstep.Proc[stepOp, Value]
	m  *machine
}

// ID returns the processor index.
func (p *Proc) ID() int { return p.lp.ID() }

// P returns the number of processors.
func (p *Proc) P() int { return p.m.cfg.P }

// Cells returns the shared memory size.
func (p *Proc) Cells() int { return p.m.cfg.Cells }

// Step reads readCell and writes writeVal to writeCell in one synchronous
// step; the read observes the pre-step memory.
func (p *Proc) Step(readCell int, writeCell int, writeVal Value) Value {
	return p.lp.Step(stepOp{kind: opRead | opWrite, readCell: readCell, writeCell: writeCell, writeVal: writeVal})
}

// Read reads one cell this step.
func (p *Proc) Read(cell int) Value {
	return p.lp.Step(stepOp{kind: opRead, readCell: cell})
}

// Write writes one cell this step.
func (p *Proc) Write(cell int, v Value) {
	p.lp.Step(stepOp{kind: opWrite, writeCell: cell, writeVal: v})
}

// Idle spends one step without touching memory.
func (p *Proc) Idle() {
	p.lp.Step(stepOp{})
}

// Abortf fails the whole computation.
func (p *Proc) Abortf(format string, args ...any) {
	p.lp.Abortf(format, args...)
}

// machine is the shared memory and its accounting, touched during a run
// only by resolve.
type machine struct {
	cfg     Config
	mem     []Value
	touched []bool
	writer  map[int]int // cell -> the processor that wrote it this step
	stats   Stats
}

// resolve performs one step: every read observes the pre-step memory, then
// the writes land, at most one per cell.
func (m *machine) resolve(ops []stepOp, active []bool, results []Value) error {
	for id := range ops {
		op := &ops[id]
		if !active[id] || op.kind&opRead == 0 {
			continue
		}
		if op.readCell < 0 || op.readCell >= m.cfg.Cells {
			return fmt.Errorf("%w: processor %d read invalid cell %d", ErrAborted, id, op.readCell)
		}
		results[id] = m.mem[op.readCell]
		m.stats.Reads++
	}
	clear(m.writer)
	for id := range ops {
		op := &ops[id]
		if !active[id] || op.kind&opWrite == 0 {
			continue
		}
		if op.writeCell < 0 || op.writeCell >= m.cfg.Cells {
			return fmt.Errorf("%w: processor %d wrote invalid cell %d", ErrAborted, id, op.writeCell)
		}
		if prev, ok := m.writer[op.writeCell]; ok {
			return fmt.Errorf("%w: exclusive-write violation on cell %d (processors %d and %d)", ErrAborted, op.writeCell, prev, id)
		}
		m.writer[op.writeCell] = id
		m.mem[op.writeCell] = op.writeVal
		if !m.touched[op.writeCell] {
			m.touched[op.writeCell] = true
			m.stats.CellsTouched++
		}
		m.stats.Writes++
	}
	return nil
}

// Run executes one program per processor.
func Run(cfg Config, programs []func(*Proc)) (*Result, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("crew: P must be >= 1, got %d", cfg.P)
	}
	if cfg.Cells < 1 {
		return nil, fmt.Errorf("crew: Cells must be >= 1, got %d", cfg.Cells)
	}
	if len(programs) != cfg.P {
		return nil, fmt.Errorf("crew: %d programs for %d processors", len(programs), cfg.P)
	}
	m := &machine{
		cfg:     cfg,
		mem:     make([]Value, cfg.Cells),
		touched: make([]bool, cfg.Cells),
		writer:  map[int]int{},
	}
	progs := make([]func(*lockstep.Proc[stepOp, Value]), cfg.P)
	for i, prog := range programs {
		progs[i] = func(lp *lockstep.Proc[stepOp, Value]) { prog(&Proc{lp: lp, m: m}) }
	}
	steps, err := lockstep.Run(lockstep.Config{
		MaxSteps:     cfg.MaxSteps,
		StallTimeout: cfg.StallTimeout,
		Unit:         "step",
		ErrAborted:   ErrAborted,
	}, m.resolve, progs)
	if err != nil {
		return nil, err
	}
	m.stats.Steps = steps
	return &Result{Stats: m.stats}, nil
}

// RunUniform runs the same program on every processor.
func RunUniform(cfg Config, program func(*Proc)) (*Result, error) {
	progs := make([]func(*Proc), cfg.P)
	for i := range progs {
		progs[i] = program
	}
	return Run(cfg, progs)
}
