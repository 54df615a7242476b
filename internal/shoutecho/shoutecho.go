// Package shoutecho implements the Shout-Echo broadcast model of Santoro
// and Sidney ([Sant82, Sant83] in the paper) and the port of the paper's
// selection algorithm to it, which Section 9 reports improves the previous
// best Shout-Echo selection bound by a factor of O(log p) ([Marb85]).
//
// In the Shout-Echo model a basic communication activity (a "round")
// consists of one processor broadcasting a message (the shout) and receiving
// a reply from every other processor (the echoes). Unlike the MCB model,
// a round is a single indivisible activity involving all processors; the
// complexity measures are the number of rounds and the total number of
// messages (one shout plus p-1 echoes per round).
package shoutecho

import (
	"errors"
	"fmt"
	"time"

	"mcbnet/internal/lockstep"
	"mcbnet/internal/mcb"
)

// Message reuses the MCB message format (a tag plus three words).
type Message = mcb.Message

// Config describes a Shout-Echo network.
type Config struct {
	// P is the number of processors.
	P int
	// MaxRounds aborts runaway computations; zero means no limit.
	MaxRounds int64
	// StallTimeout aborts when no round completes for this long (default
	// 30s).
	StallTimeout time.Duration
}

// Stats counts the model's costs.
type Stats struct {
	// Rounds is the number of shout-echo activities.
	Rounds int64
	// Messages counts one shout plus one echo from every other processor
	// still in the protocol, per round.
	Messages int64
}

// Result is the outcome of a run.
type Result struct {
	Stats Stats
}

// ErrAborted is wrapped by all abort errors.
var ErrAborted = errors.New("shoutecho: run aborted")

type roundOp struct {
	shout bool
	msg   Message               // the shout, for the shouter
	reply func(Message) Message // for echoers
}

type roundResult struct {
	shout  Message   // for echoers: the shout heard
	echoes []Message // for the shouter: replies indexed by processor
}

// Proc is the per-processor handle. In every round each live processor must
// call exactly one of Shout or Echo; returning from the program leaves the
// protocol.
type Proc struct {
	lp *lockstep.Proc[roundOp, roundResult]
	p  int
}

// ID returns the processor index in [0, P).
func (p *Proc) ID() int { return p.lp.ID() }

// P returns the number of processors.
func (p *Proc) P() int { return p.p }

// Shout broadcasts m and returns the echoes, indexed by processor id (the
// shouter's own slot is the zero Message).
func (p *Proc) Shout(m Message) []Message {
	return p.lp.Step(roundOp{shout: true, msg: m}).echoes
}

// Echo participates in the round as a replier: reply is called with the
// shout and must return this processor's echo. Echo returns the shout heard.
func (p *Proc) Echo(reply func(shout Message) Message) Message {
	return p.lp.Step(roundOp{reply: reply}).shout
}

// Abortf fails the whole computation.
func (p *Proc) Abortf(format string, args ...any) {
	p.lp.Abortf(format, args...)
}

// resolve runs one round: the single shouter hears an echo from every other
// active processor, and each of those hears the shout.
func (s *Stats) resolve(ops []roundOp, active []bool, results []roundResult) error {
	shouter := -1
	for id, op := range ops {
		if !active[id] || !op.shout {
			continue
		}
		if shouter >= 0 {
			return fmt.Errorf("%w: processors %d and %d shout in the same round", ErrAborted, shouter, id)
		}
		shouter = id
	}
	if shouter < 0 {
		return fmt.Errorf("%w: round with echoes but no shouter", ErrAborted)
	}
	shout := ops[shouter].msg
	echoes := make([]Message, len(ops))
	for id, op := range ops {
		if !active[id] || id == shouter {
			continue
		}
		var err error
		if echoes[id], err = echo(id, op.reply, shout); err != nil {
			return err
		}
		results[id] = roundResult{shout: shout}
		s.Messages++
	}
	results[shouter] = roundResult{echoes: echoes}
	s.Messages++
	return nil
}

// echo calls processor id's reply. It runs on the goroutine of whichever
// processor resolves the round, so a panic is attributed here to id. A
// reply that called Abortf has already failed the run, and that first
// error is the one the run reports.
func echo(id int, reply func(Message) Message, shout Message) (m Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: processor %d panicked in its echo: %v", ErrAborted, id, r)
		}
	}()
	return reply(shout), nil
}

// Run executes one program per processor.
func Run(cfg Config, programs []func(*Proc)) (*Result, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("shoutecho: P must be >= 1, got %d", cfg.P)
	}
	if len(programs) != cfg.P {
		return nil, fmt.Errorf("shoutecho: %d programs for %d processors", len(programs), cfg.P)
	}
	progs := make([]func(*lockstep.Proc[roundOp, roundResult]), cfg.P)
	for i, prog := range programs {
		progs[i] = func(lp *lockstep.Proc[roundOp, roundResult]) { prog(&Proc{lp: lp, p: cfg.P}) }
	}
	var stats Stats
	rounds, err := lockstep.Run(lockstep.Config{
		MaxSteps:     cfg.MaxRounds,
		StallTimeout: cfg.StallTimeout,
		Unit:         "round",
		ErrAborted:   ErrAborted,
	}, stats.resolve, progs)
	if err != nil {
		return nil, err
	}
	stats.Rounds = rounds
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
