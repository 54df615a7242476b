// Package transport defines the seam between the MCB algorithms and the
// machinery that executes their engine rounds. The algorithm drivers
// (internal/core) are written against Transport; the in-process engine
// (internal/mcb) sits behind Local, and
// internal/transport/tcp runs the same rounds across OS processes with a
// sequencer resolving cycles over length-prefixed checksummed frames.
//
// A Transport executes whole engine rounds, not single cycle ops: Run takes
// the full program set of an MCB(p, k) round and returns the same *mcb.Result
// the in-process engine would. A distributed transport executes only the
// programs of the processors it owns (Owns) — the rest run in peer
// processes — and Exchange moves the per-processor state blobs produced at
// run boundaries so every process holds the full distributed state (which is
// what lets verification, retry decisions and checkpointing run unmodified
// on every peer).
package transport

import (
	"context"

	"mcbnet/internal/mcb"
)

// Transport executes engine rounds and boundary state exchanges.
//
// The algorithm drivers call the methods collectively and in deterministic
// order: every process of a distributed run makes the same Run and Exchange
// calls with the same tags, so a transport may treat each call as a
// rendezvous. Errors from Run are the engine's typed taxonomy (possibly
// wrapping transport-level causes such as LinkError); a non-nil *mcb.Result
// alongside an error covers the completed cycles, exactly as mcb.Run.
type Transport interface {
	// Run executes one engine round. programs must have cfg.P entries; a
	// distributed transport runs only those this process Owns.
	Run(ctx context.Context, cfg mcb.Config, programs []func(mcb.Node)) (*mcb.Result, error)
	// Owns reports whether processor proc's program executes in this
	// process. Local owns everything.
	Owns(proc int) bool
	// Exchange shares per-processor boundary state: blobs has one entry per
	// processor (nil for processors this process does not own) and the
	// result has every processor's blob. The tag names the boundary; all
	// processes of a run must exchange the same tags in the same order.
	Exchange(tag string, blobs [][]byte) ([][]byte, error)
	// InProcess reports whether all processors share this address space —
	// true for Local, letting drivers skip the (identity) exchanges.
	InProcess() bool
	// Close releases transport resources (connections, listeners). Local is
	// a no-op.
	Close() error
}

// Local is the in-process Transport: rounds run on the in-process engine,
// byte-for-byte unchanged on the fast path, and exchanges are the identity
// (every processor already shares memory).
type Local struct{}

// Run executes the round on the in-process engine.
func (Local) Run(ctx context.Context, cfg mcb.Config, programs []func(mcb.Node)) (*mcb.Result, error) {
	return mcb.RunContext(ctx, cfg, programs)
}

// Owns reports true: every processor lives in this process.
func (Local) Owns(int) bool { return true }

// Exchange is the identity: the caller's blobs already cover every
// processor.
func (Local) Exchange(tag string, blobs [][]byte) ([][]byte, error) { return blobs, nil }

// InProcess reports true.
func (Local) InProcess() bool { return true }

// Close is a no-op.
func (Local) Close() error { return nil }

var _ Transport = Local{}

// LinkError reports a transport-level connection failure: a peer link died
// (dial exhausted, read/write deadline, checksum mismatch, sequence gap,
// connection reset) before the round could complete. It wraps mcb.ErrAborted
// so the retry layers treat it like any other typed abort — retryable, and
// recoverable from a checkpoint.
type LinkError struct {
	// Peer names the remote end ("sequencer" from a client, the peer name
	// from the sequencer).
	Peer string
	// Op is what the link was doing ("dial", "read", "write", "frame").
	Op string
	// Err is the underlying cause.
	Err error
}

func (e *LinkError) Error() string {
	return "transport: link to " + e.Peer + " failed during " + e.Op + ": " + e.Err.Error()
}

// Unwrap yields mcb.ErrAborted (and the cause via errors.As on Err).
func (e *LinkError) Unwrap() error { return mcb.ErrAborted }
