package mcb

import (
	"errors"
	"time"
)

// RetryPolicy configures the verify-and-retry recovery layer
// (core.SortWithRetry / core.SelectWithRetry). A faulted run is detected —
// by a typed engine error or by failed output verification — and
// re-executed on a fresh network rather than silently returning a wrong
// answer.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts; values below 1 mean a
	// single attempt (no retry).
	MaxAttempts int
	// Backoff is the wait before the second attempt; it doubles per further
	// attempt. Zero retries immediately (the default: the network is
	// simulated, there is no congestion to wait out).
	Backoff time.Duration
	// DegradeOnCrash enables graceful degradation for selection: after a
	// CrashError, the next attempt treats the crashed processors as empty
	// (their elements are lost) instead of insisting on the full set. The
	// selection protocols are silence-tolerant, so the degraded run answers
	// the rank over the surviving elements. Ignored by sorting — a sort
	// cannot deliver output to a dead processor.
	DegradeOnCrash bool
	// DegradeOnOutage enables channel-loss degradation: when a failure is
	// attributable to specific channels (scripted outage windows still open
	// at the failing cycle, per FaultStats.OutagePerChannel), the next
	// attempt drops those channels and re-runs on the k' < k survivors.
	// The paper's algorithms are valid for any k ≤ p, so shrinking k only
	// costs cycles; it beats retrying into the same dead channel forever.
	// Used by SortWithRetry / SelectWithRetry, which rebuild the programs
	// for the remapped channel indices.
	DegradeOnOutage bool
	// JitterSeed, when non-zero, dithers the exponential backoff with
	// deterministic "equal jitter": attempt a waits d/2 + r·(d/2) where d is
	// the undithered doubled wait and r ∈ [0, 1] is a pure function of
	// (JitterSeed, a). Without it every peer of a distributed run retries at
	// exactly the same instants and thundering-herds the sequencer; distinct
	// per-peer seeds de-synchronize the herd while keeping each peer's
	// schedule reproducible. Zero keeps the exact undithered doubling.
	JitterSeed uint64
}

// maxBackoffShift caps the exponential-backoff doubling: Backoff<<attempt
// wraps (and can go negative) once attempt reaches the duration's leading
// zeros, turning the wait into garbage for large MaxAttempts.
const maxBackoffShift = 16

// BackoffFor returns the wait after the given 0-based attempt: Backoff
// doubled per attempt, with the exponent capped and an overflow guard so a
// large MaxAttempts (or a huge base Backoff) can never wrap to a negative
// or near-zero wait. With JitterSeed set the doubled wait d is dithered into
// [d/2, d] deterministically (see JitterSeed); the result stays monotonically
// bounded by the clamp either way. Exported so transports reuse the exact
// schedule for connection dialing.
func (p RetryPolicy) BackoffFor(attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	if attempt > maxBackoffShift {
		attempt = maxBackoffShift
	}
	d := p.Backoff << attempt
	if d <= 0 || d>>attempt != p.Backoff { // shift overflowed (huge base Backoff)
		d = p.Backoff
	}
	if p.JitterSeed == 0 {
		return d
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	r := mix64(p.JitterSeed ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15)
	return half + time.Duration(r%(uint64(half)+1))
}

// Retryable reports whether err is worth retrying on a fresh network: engine
// aborts (anything wrapping ErrAborted, which includes the whole typed
// taxonomy) and collisions. Configuration and validation errors are not —
// they recur deterministically regardless of faults.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrAborted) {
		return true
	}
	var ce *CollisionError
	return errors.As(err, &ce)
}
