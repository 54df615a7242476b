package mcb

import (
	"encoding/json"
	"io"

	"mcbnet/internal/trace"
)

// Report is the machine-readable summary of a run: the network shape, the
// whole-run Stats and the per-phase breakdown, in a stable JSON schema for
// downstream tooling (the -json flags of the CLIs emit it). Extra carries
// caller-specific fields (algorithm name, input size, results) without
// changing the schema of the measured part.
type Report struct {
	// Model names the machine model of the run, e.g. "mcb".
	Model string `json:"model"`
	// P and K are the network shape: processors and broadcast channels.
	P int `json:"p"`
	K int `json:"k"`

	// Cycles and Messages are the two complexity measures of the model.
	Cycles   int64 `json:"cycles"`
	Messages int64 `json:"messages"`
	// MaxAbs is the largest absolute payload field value broadcast.
	MaxAbs int64 `json:"max_abs"`
	// MaxAux is the auxiliary-memory watermark in words (0 if unreported).
	MaxAux int64 `json:"max_aux,omitempty"`
	// PerProc[i] / PerChannel[c] are the per-processor and per-channel
	// message counts.
	PerProc    []int64 `json:"per_proc,omitempty"`
	PerChannel []int64 `json:"per_channel,omitempty"`
	// Utilization is Messages / (Cycles * K): the fraction of channel-cycles
	// carrying a message.
	Utilization float64 `json:"utilization"`

	// Phases is the per-phase breakdown, in first-marked order. Empty if the
	// program never called Phase.
	Phases []PhaseStats `json:"phases,omitempty"`

	// Faults counts the injected faults of the run (nil when no fault was
	// injected).
	Faults *FaultStats `json:"faults,omitempty"`
	// Recovery is the retry, checkpoint and channel-degradation account.
	Recovery

	// Extra holds caller-specific fields; keys are caller-defined.
	Extra map[string]any `json:"extra,omitempty"`
}

// Recovery is the account of how a run reached its answer: retry attempts,
// checkpoint resumes, discarded work and channel degradation. Report,
// core.Report and core.SelectReport embed it, so the CLIs copy it whole.
type Recovery struct {
	// Attempts is the number of attempts the verify-and-retry layer used to
	// produce the result (0 or 1 = single attempt, no retry).
	Attempts int `json:"attempts,omitempty"`
	// Resumes is how many of those attempts continued from a phase-boundary
	// checkpoint instead of restarting from cycle 0.
	Resumes int `json:"resumes,omitempty"`
	// CheckpointPhase names the last accepted checkpoint the final attempt
	// started from ("" when the run never resumed).
	CheckpointPhase string `json:"checkpoint_phase,omitempty"`
	// ReplayedCycles counts cycles that were executed but discarded — work
	// not on the accepted attempt's path (failed attempts, rolled-back
	// segments). Lower is better; checkpointed recovery exists to shrink it.
	ReplayedCycles int64 `json:"replayed_cycles,omitempty"`
	// DegradedK is the reduced channel count a degraded run finished on
	// (0 when no channel degradation occurred); DeadChannels lists the
	// original channel indices that were dropped.
	DegradedK    int   `json:"degraded_k,omitempty"`
	DeadChannels []int `json:"dead_channels,omitempty"`
}

// NewReport builds a Report from a run's configuration and stats.
func NewReport(cfg Config, s *Stats) *Report {
	r := &Report{
		Model:      "mcb",
		P:          cfg.P,
		K:          cfg.K,
		Cycles:     s.Cycles,
		Messages:   s.Messages,
		MaxAbs:     s.MaxAbs,
		MaxAux:     s.MaxAux,
		PerProc:    append([]int64(nil), s.PerProc...),
		PerChannel: append([]int64(nil), s.PerChannel...),
	}
	if cfg.K > 0 && s.Cycles > 0 {
		r.Utilization = float64(s.Messages) / (float64(s.Cycles) * float64(cfg.K))
	}
	r.Phases = make([]PhaseStats, 0, len(s.Phases))
	for i := range s.Phases {
		r.Phases = append(r.Phases, s.Phases[i].clone())
	}
	if s.Faults.Total() > 0 {
		f := s.Faults.clone()
		r.Faults = &f
	}
	return r
}

// AttachTraceSummary folds a cycle recorder's per-phase timeline — channel
// utilization, silences, collisions, fault counts, cycle ranges — into the
// report's Extra section under "trace", keeping the measured part of the
// schema unchanged. A nil recorder is a no-op.
func AttachTraceSummary(rep *Report, rec *trace.Recorder) {
	if rec == nil {
		return
	}
	if rep.Extra == nil {
		rep.Extra = make(map[string]any)
	}
	rep.Extra["trace"] = map[string]any{
		"events":  rec.Total(),
		"dropped": rec.Dropped(),
		"phases":  rec.Summaries(),
	}
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteJSON writes the indented JSON report plus a trailing newline to w.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
