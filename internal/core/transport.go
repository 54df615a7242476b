package core

import (
	"context"
	"encoding/json"
	"fmt"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/mcb"
	"mcbnet/internal/transport"
)

// This file is the algorithm drivers' attachment to the transport seam.
//
// Every driver (Sort, Select, SortWithRetry and SelectWithRetry) is itself
// deterministic host code: given the same inputs and options it computes the
// same segment plan, the same engine configs, the same verification
// decisions. Under a distributed transport each peer process runs the SAME
// driver redundantly over the SAME inputs, and only the engine runs are
// collective — the transport keeps the peers' processor programs in
// lock-step on one shared engine. The one thing a peer cannot compute
// locally is what the processors it does NOT host produced, so after every
// successful run the drivers exchange those per-processor results (and the
// globally agreed scalars captured at processor 0) through
// Transport.Exchange. The in-process transport owns every processor, making
// the exchanges no-ops: the local fast path is untouched.

// runEnv bundles the execution target of one engine run: the transport that
// hosts the processor programs and the context that can cancel the run.
type runEnv struct {
	t   transport.Transport
	ctx context.Context
}

// newRunEnv resolves the options' transport knobs: a nil transport means
// in-process execution, a nil context means background.
func newRunEnv(t transport.Transport, ctx context.Context) runEnv {
	if t == nil {
		t = transport.Local{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return runEnv{t: t, ctx: ctx}
}

func (o SortOptions) runEnv() runEnv   { return newRunEnv(o.Transport, o.Ctx) }
func (o SelectOptions) runEnv() runEnv { return newRunEnv(o.Transport, o.Ctx) }

// run executes one collective engine run on the environment's transport.
func (e runEnv) run(cfg mcb.Config, progs []func(mcb.Node)) (*mcb.Result, error) {
	return e.t.Run(e.ctx, cfg, progs)
}

// exchangeSlices shares a per-processor result table across the peer group
// after a successful run: each peer contributes the entries of the
// processors it hosted and receives everyone else's, so that every peer
// leaves the exchange with the identical complete table (which keeps the
// redundant drivers deterministic). In-process transports host every
// processor and skip the exchange entirely.
func exchangeSlices[S any](env runEnv, tag string, vals []S) error {
	if env.t.InProcess() {
		return nil
	}
	blobs := make([][]byte, len(vals))
	for i := range vals {
		if !env.t.Owns(i) {
			continue
		}
		b, err := json.Marshal(vals[i])
		if err != nil {
			return fmt.Errorf("core: encode %s[%d]: %w", tag, i, err)
		}
		blobs[i] = b
	}
	got, err := env.t.Exchange(tag, blobs)
	if err != nil {
		return err
	}
	if len(got) != len(vals) {
		return fmt.Errorf("core: exchange %s returned %d entries, want %d", tag, len(got), len(vals))
	}
	for i := range vals {
		if env.t.Owns(i) {
			continue
		}
		var v S
		if err := json.Unmarshal(got[i], &v); err != nil {
			return fmt.Errorf("core: decode %s[%d]: %w", tag, i, err)
		}
		vals[i] = v
	}
	return nil
}

// phaseHistory keeps every boundary snapshot this process has accepted in
// the current run (and the accepted-cost stats at each), keyed by snapshot
// phase. It exists for one distributed failure mode: a peer process can be
// killed in the window between a collective segment completing and its local
// store.Save, leaving its store one boundary behind the survivors'. On
// rejoin the restarted peer proposes the earlier segment while the survivors
// propose the later one — a permanent protocol divergence. The resync
// exchange below detects the skew and rewinds the peers that ran ahead to the
// group minimum, which the history makes possible without re-reading the
// store. An in-process run has one driver and nothing to resync, so it keeps
// no history: its phaseHistory is nil, and recording into it is a no-op.
type phaseHistory struct {
	snaps map[int]*checkpoint.Snapshot
	stats map[int]mcb.Stats
}

// newPhaseHistory returns the history of a run on env: nil in-process.
func newPhaseHistory(env runEnv) *phaseHistory {
	if env.t.InProcess() {
		return nil
	}
	return &phaseHistory{snaps: map[int]*checkpoint.Snapshot{}, stats: map[int]mcb.Stats{}}
}

// record remembers an accepted boundary and the accepted-path cost at it.
// The snapshot is stored by reference (each accepted boundary is already a
// fresh Clone); the stats are deep-copied because the caller keeps mutating
// its accumulator.
func (h *phaseHistory) record(snap *checkpoint.Snapshot, accepted *mcb.Stats) {
	if h == nil {
		return
	}
	h.snaps[snap.Phase] = snap
	var c mcb.Stats
	c.Add(accepted)
	h.stats[snap.Phase] = c
}

// reset discards the history (a full restart invalidates every boundary).
func (h *phaseHistory) reset() {
	if h == nil {
		return
	}
	h.snaps = map[int]*checkpoint.Snapshot{}
	h.stats = map[int]mcb.Stats{}
}

// resyncPhases aligns a distributed recovery driver with its peer group
// at the start of an attempt: every peer contributes the phase of the
// boundary it is about to continue from, and peers that ran ahead of the
// group minimum rewind to it (replaying the rewound segments, which keeps
// kill-and-rejoin convergent instead of diverging forever on mismatched
// proposals). Returns the possibly-rewound snapshot and updates *accepted
// to the cost recorded at that boundary. In-process transports skip the
// exchange — there is exactly one driver, nothing to align.
func resyncPhases(env runEnv, kind string, p int, snap *checkpoint.Snapshot, hist *phaseHistory, accepted *mcb.Stats) (*checkpoint.Snapshot, error) {
	if env.t.InProcess() {
		return snap, nil
	}
	phases := make([]int, p)
	for i := range phases {
		phases[i] = snap.Phase
	}
	if err := exchangeSlices(env, kind+":phase-sync", phases); err != nil {
		return snap, err
	}
	min := phases[0]
	for _, ph := range phases[1:] {
		if ph < min {
			min = ph
		}
	}
	if min == snap.Phase {
		return snap, nil
	}
	old := hist.snaps[min]
	if old == nil {
		// Unreachable when stores skew by the save window only (a peer can
		// never be behind a boundary the group passed without it); surfacing
		// it beats proposing diverged steps forever.
		return snap, fmt.Errorf("core: peer group resumed %s at phase %d, before this process's history (at %d)", kind, min, snap.Phase)
	}
	rw := old.Clone()
	rw.Attempt = snap.Attempt
	rw.Resumes = snap.Resumes
	rw.ReplayedCycles = snap.ReplayedCycles + (snap.CyclesDone - rw.CyclesDone)
	at := hist.stats[min]
	var st mcb.Stats
	st.Add(&at) // detach: the caller mutates *accepted in place
	*accepted = st
	return rw, nil
}

// exchangeScalar shares a value captured at processor 0 (the selection
// drivers' globally agreed scalars) across the peer group: the peer hosting
// processor 0 contributes it, everyone else receives it in blob slot 0.
func exchangeScalar[T any](env runEnv, tag string, p int, v *T) error {
	if env.t.InProcess() {
		return nil
	}
	blobs := make([][]byte, p)
	if env.t.Owns(0) {
		b, err := json.Marshal(*v)
		if err != nil {
			return fmt.Errorf("core: encode %s: %w", tag, err)
		}
		blobs[0] = b
	}
	got, err := env.t.Exchange(tag, blobs)
	if err != nil {
		return err
	}
	if env.t.Owns(0) {
		return nil
	}
	if len(got) == 0 || got[0] == nil {
		return fmt.Errorf("core: exchange %s carried no processor-0 scalar", tag)
	}
	if err := json.Unmarshal(got[0], v); err != nil {
		return fmt.Errorf("core: decode %s: %w", tag, err)
	}
	return nil
}
