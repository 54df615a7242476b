// Package ipbam implements the single-channel broadcast model of Dechter
// and Kleinrock ([Dech81, Dech84] in the paper; Levitan's BPM [Levi82] is
// identical): p processors share one broadcast channel, any number of them
// may transmit in a slot, and a global collision-resolution mechanism gives
// every processor ternary feedback — the slot was empty, carried exactly one
// message (delivered to all), or collided.
//
// The paper's Section 9 observes that its single-channel Merge-Sort matches
// the sorting complexity of [Dech84] in this model *without ever using
// concurrent write*; the adapter at the bottom of this package runs the MCB
// algorithms on an IPBAM channel to make that claim executable. The package
// also implements the model's signature algorithm — extrema finding by
// bitwise descent, where collisions themselves carry information — as the
// comparison point of experiment E16.
package ipbam

import (
	"errors"
	"fmt"
	"time"

	"mcbnet/internal/lockstep"
	"mcbnet/internal/mcb"
)

// Message reuses the MCB message format.
type Message = mcb.Message

// Feedback is the ternary channel outcome of a slot.
type Feedback uint8

const (
	// Empty: no processor transmitted.
	Empty Feedback = iota
	// Single: exactly one processor transmitted; the message was delivered.
	Single
	// Collision: two or more processors transmitted; nothing was delivered.
	Collision
)

func (f Feedback) String() string {
	switch f {
	case Empty:
		return "empty"
	case Single:
		return "single"
	case Collision:
		return "collision"
	}
	return "?"
}

// Config describes an IPBAM network.
type Config struct {
	P            int
	MaxSlots     int64
	StallTimeout time.Duration
}

// Stats counts the model's costs.
type Stats struct {
	// Slots is the number of channel slots (the model's time measure).
	Slots int64
	// Transmissions counts individual transmit attempts (several per slot
	// under concurrent write).
	Transmissions int64
	// Collisions counts collided slots.
	Collisions int64
}

// Result is the outcome of a run.
type Result struct {
	Stats Stats
}

// ErrAborted is wrapped by all abort errors.
var ErrAborted = errors.New("ipbam: run aborted")

type slotOp struct {
	transmit bool
	msg      Message
}

type slotResult struct {
	fb  Feedback
	msg Message
}

// Proc is the per-processor handle. Each slot every live processor must call
// exactly one of Transmit or Listen.
type Proc struct {
	lp *lockstep.Proc[slotOp, slotResult]
	p  int
}

// ID returns the processor index.
func (p *Proc) ID() int { return p.lp.ID() }

// P returns the number of processors.
func (p *Proc) P() int { return p.p }

// Transmit attempts to send m this slot and returns the slot's feedback
// (and the delivered message when feedback is Single — possibly its own).
func (p *Proc) Transmit(m Message) (Feedback, Message) {
	r := p.lp.Step(slotOp{transmit: true, msg: m})
	return r.fb, r.msg
}

// Listen observes the slot without transmitting.
func (p *Proc) Listen() (Feedback, Message) {
	r := p.lp.Step(slotOp{})
	return r.fb, r.msg
}

// Abortf fails the whole computation.
func (p *Proc) Abortf(format string, args ...any) {
	p.lp.Abortf(format, args...)
}

// resolve gives every processor the slot's ternary feedback and counts the
// slot's transmissions and collision in s.
func (s *Stats) resolve(ops []slotOp, active []bool, results []slotResult) error {
	var msg Message
	writers := 0
	for id, op := range ops {
		if active[id] && op.transmit {
			writers++
			msg = op.msg
		}
	}
	s.Transmissions += int64(writers)
	r := slotResult{fb: Empty}
	switch {
	case writers == 1:
		r = slotResult{fb: Single, msg: msg}
	case writers > 1:
		r.fb = Collision
		s.Collisions++
	}
	for id := range results {
		results[id] = r
	}
	return nil
}

// Run executes one program per processor.
func Run(cfg Config, programs []func(*Proc)) (*Result, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("ipbam: P must be >= 1, got %d", cfg.P)
	}
	if len(programs) != cfg.P {
		return nil, fmt.Errorf("ipbam: %d programs for %d processors", len(programs), cfg.P)
	}
	progs := make([]func(*lockstep.Proc[slotOp, slotResult]), cfg.P)
	for i, prog := range programs {
		progs[i] = func(lp *lockstep.Proc[slotOp, slotResult]) { prog(&Proc{lp: lp, p: cfg.P}) }
	}
	var stats Stats
	slots, err := lockstep.Run(lockstep.Config{
		MaxSteps:     cfg.MaxSlots,
		StallTimeout: cfg.StallTimeout,
		Unit:         "slot",
		ErrAborted:   ErrAborted,
	}, stats.resolve, progs)
	if err != nil {
		return nil, err
	}
	stats.Slots = slots
	return &Result{Stats: stats}, nil
}

// RunUniform runs the same program on every processor.
func RunUniform(cfg Config, program func(*Proc)) (*Result, error) {
	progs := make([]func(*Proc), cfg.P)
	for i := range progs {
		progs[i] = program
	}
	return Run(cfg, progs)
}
