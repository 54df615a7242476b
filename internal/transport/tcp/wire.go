package tcp

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"mcbnet/internal/mcb"
	"mcbnet/internal/transport"
)

// Cycle-op kinds as they travel peer → sequencer. Every op that participates
// in a cycle gets a result frame back (an empty ack for write/idle ops):
// the round trip keeps the remote processor in lock-step with the engine
// exactly as the in-process step() blocking until cycle resolution does, and
// it bounds the per-processor mailbox at one outstanding op.
const (
	wWrite = iota + 1
	wRead
	wWriteRead
	wIdle
	wIdleN // N carries the stretch length; acked once, after the last cycle
	wExit  // leave the protocol; not acked (in-process exit does not block)
	wAux   // AccountAux delta in N; fire-and-forget (pure accounting)
	wAbort // Abortf; Str carries the message; the round's fDone is the answer
)

// wireOp is one remote processor cycle operation.
type wireOp struct {
	Proc   int          `json:"p"`
	Kind   int          `json:"k"`
	WCh    int          `json:"w,omitempty"`
	RCh    int          `json:"r,omitempty"`
	Msg    *mcb.Message `json:"m,omitempty"`
	N      int64        `json:"n,omitempty"`
	Phases []string     `json:"ph,omitempty"` // pending Phase markers, applied before the op
	Str    string       `json:"s,omitempty"`  // wAbort message
}

// wireRes is the engine's answer to one cycle op: the read result for
// reading ops, a bare ack otherwise.
type wireRes struct {
	Proc int         `json:"p"`
	Msg  mcb.Message `json:"m"`
	OK   bool        `json:"ok"`
}

type helloBody struct {
	Job    string `json:"job"`
	Name   string `json:"name"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Resume bool   `json:"resume,omitempty"`
}

type welcomeBody struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
	P      int    `json:"p"`
	// Epoch is the sequencer's current epoch. On a stale-epoch rejection it
	// tells the peer where the group has moved so it can adopt the epoch and
	// redial the candidate that epoch maps to.
	Epoch uint64 `json:"epoch,omitempty"`
	// Retry marks a rejection as transient: the admission raced sequencer
	// state that is about to settle (a dying connection not yet reaped), so
	// the peer should redial within its bounded sweep rather than give up.
	Retry bool `json:"retry,omitempty"`
}

type roundBody struct {
	Tag string          `json:"tag,omitempty"`
	Cfg json.RawMessage `json:"cfg"`
}

type startBody struct {
	Round uint64 `json:"round"`
}

type opsBody struct {
	Round uint64   `json:"round"`
	Ops   []wireOp `json:"ops"`
}

type resultsBody struct {
	Round uint64    `json:"round"`
	Res   []wireRes `json:"res"`
}

type doneBody struct {
	Round uint64     `json:"round"`
	Stats *mcb.Stats `json:"stats,omitempty"` // nil when the engine could not collect a partial result
	Err   *wireError `json:"err,omitempty"`
}

type xchgBody struct {
	Tag   string   `json:"tag"`
	Lo    int      `json:"lo"`
	Blobs [][]byte `json:"blobs"`
}

type xchgAllBody struct {
	Tag   string   `json:"tag"`
	Blobs [][]byte `json:"blobs"`
}

type failBody struct {
	Err *wireError `json:"err"`
}

type abortBody struct {
	Msg string `json:"msg"`
}

// wireConfig is the canonical engine configuration of a round. Every peer
// must propose byte-identical config JSON — the sequencer rejects divergence
// (which would mean the peers' drivers are no longer executing the same
// deterministic computation). Local-only knobs (ProfileLabels, AbortGrace)
// stay out; a Recorder is rejected outright (its events would live in the
// sequencer's engine and are not shipped back).
type wireConfig struct {
	P         int            `json:"p"`
	K         int            `json:"k"`
	MaxCycles int64          `json:"max_cycles,omitempty"`
	StallNS   int64          `json:"stall_ns,omitempty"`
	MaxAbs    int64          `json:"max_abs,omitempty"`
	Faults    *mcb.FaultPlan `json:"faults,omitempty"`
}

func encodeConfig(cfg mcb.Config) ([]byte, error) {
	if cfg.Recorder != nil {
		return nil, errors.New("tcp: a Recorder is not supported over the tcp transport (it observes the sequencer's engine, not the peers)")
	}
	return json.Marshal(wireConfig{
		P: cfg.P, K: cfg.K,
		MaxCycles: cfg.MaxCycles,
		StallNS:   int64(cfg.StallTimeout),
		MaxAbs:    cfg.MaxAbs,
		Faults:    cfg.Faults,
	})
}

func decodeConfig(b []byte) (mcb.Config, error) {
	var w wireConfig
	if err := json.Unmarshal(b, &w); err != nil {
		return mcb.Config{}, fmt.Errorf("tcp: bad round config: %w", err)
	}
	return mcb.Config{
		P: w.P, K: w.K,
		MaxCycles:    w.MaxCycles,
		StallTimeout: time.Duration(w.StallNS),
		MaxAbs:       w.MaxAbs,
		Faults:       w.Faults,
	}, nil
}

// wireError ships the typed failure taxonomy. Concrete types round-trip as
// their exported fields (time.Duration marshals as integer nanoseconds, so
// the trip is exact); anything unrecognized degrades to Kind "opaque",
// which decodes as a plain non-retryable error.
type wireError struct {
	Kind       string               `json:"kind"`
	Msg        string               `json:"msg,omitempty"`
	Collision  *mcb.CollisionError  `json:"collision,omitempty"`
	Abort      *mcb.AbortError      `json:"abort,omitempty"`
	Crash      *mcb.CrashError      `json:"crash,omitempty"`
	Stall      *mcb.StallError      `json:"stall,omitempty"`
	Budget     *mcb.BudgetError     `json:"budget,omitempty"`
	Corruption *mcb.CorruptionError `json:"corruption,omitempty"`
	LinkPeer   string               `json:"link_peer,omitempty"`
	LinkOp     string               `json:"link_op,omitempty"`
}

func encodeErr(err error) *wireError {
	if err == nil {
		return nil
	}
	var (
		col  *mcb.CollisionError
		ab   *mcb.AbortError
		cr   *mcb.CrashError
		st   *mcb.StallError
		bu   *mcb.BudgetError
		co   *mcb.CorruptionError
		link *transport.LinkError
	)
	switch {
	case errors.As(err, &col):
		return &wireError{Kind: "collision", Collision: col}
	case errors.As(err, &cr):
		return &wireError{Kind: "crash", Crash: cr}
	case errors.As(err, &ab):
		return &wireError{Kind: "abort", Abort: ab}
	case errors.As(err, &st):
		return &wireError{Kind: "stall", Stall: st}
	case errors.As(err, &bu):
		return &wireError{Kind: "budget", Budget: bu}
	case errors.As(err, &co):
		return &wireError{Kind: "corruption", Corruption: co}
	case errors.As(err, &link):
		return &wireError{Kind: "link", LinkPeer: link.Peer, LinkOp: link.Op, Msg: link.Err.Error()}
	case errors.Is(err, mcb.ErrAborted):
		return &wireError{Kind: "aborted", Msg: err.Error()}
	}
	return &wireError{Kind: "opaque", Msg: err.Error()}
}

func decodeErr(w *wireError) error {
	if w == nil {
		return nil
	}
	switch w.Kind {
	case "collision":
		if w.Collision != nil {
			return w.Collision
		}
	case "crash":
		if w.Crash != nil {
			return w.Crash
		}
	case "abort":
		if w.Abort != nil {
			return w.Abort
		}
	case "stall":
		if w.Stall != nil {
			return w.Stall
		}
	case "budget":
		if w.Budget != nil {
			return w.Budget
		}
	case "corruption":
		if w.Corruption != nil {
			return w.Corruption
		}
	case "link":
		return &transport.LinkError{Peer: w.LinkPeer, Op: w.LinkOp, Err: errors.New(w.Msg)}
	case "aborted":
		return fmt.Errorf("%w: %s", mcb.ErrAborted, w.Msg)
	}
	return errors.New(w.Msg)
}

func jsonUnmarshal(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("tcp: bad %T payload: %w", v, err)
	}
	return nil
}

func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All wire bodies are plain data structs; a marshal failure is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("tcp: marshal %T: %v", v, err))
	}
	return b
}
