package core

import (
	"errors"
	"fmt"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/mcb"
	"mcbnet/internal/partial"
	"mcbnet/internal/seq"
)

// This file is the selection's recovery driver, SelectWithRetry, and the
// segmented execution of the Section 8 filtering selection. The filtering
// loop is naturally segmented: its complete state between iterations is
// (local candidate lists, d, m, iteration count), which is exactly what a
// Snapshot carries. Each iteration runs as its own engine invocation; a
// typed failure replays only the failed iteration. Unlike the sort, the
// candidate state is independent of the channel count, so a channel-degraded
// run resumes from the last checkpoint at k' < k instead of restarting.

// selSegKind enumerates the segment shapes of a selection.
type selSegKind int

const (
	selInit    selSegKind = iota // local sort + network-wide count
	selFilter                    // one filtering iteration
	selCollect                   // survivor collection at P_1 (terminal)
	selWhole                     // the whole selection as one Select run (terminal)
)

// selSegOut is the host-visible outcome of one selection segment: the
// per-processor surviving candidates plus the globally agreed scalars
// (identical at every processor; captured from processor 0).
type selSegOut struct {
	state [][]checkpoint.Elem
	d, m  int
	found bool // selFilter: the iteration located the answer exactly
	res   elem // the answer when found (or the terminal segment's result)
}

// runSelectSegment executes one filtering segment as its own engine run.
// state is the snapshot element state entering the segment (raw
// per-processor inputs for selInit, descending-sorted candidate lists
// otherwise) and is cloned before injection. cards are the per-processor
// input counts: every segment accounts them as auxiliary memory, as the
// one-run program keeps its input-sized candidate list throughout. st is the
// run's (possibly partial) cost, nil when the engine could not collect it.
func runSelectSegment(env runEnv, kind selSegKind, state [][]checkpoint.Elem, cards []int, d, m, iter int, cfg mcb.Config) (out *selSegOut, st *mcb.Stats, err error) {
	p := cfg.P
	elems := make([][]elem, p)
	for i, l := range state {
		e, err := ckptToElems(l)
		if err != nil {
			return nil, nil, fmt.Errorf("core: bad checkpoint state for processor %d: %w", i, err)
		}
		elems[i] = e
	}
	out = &selSegOut{state: make([][]checkpoint.Elem, p)}
	nextElems := make([][]elem, p)

	progs := make([]func(mcb.Node), p)
	for i := range progs {
		id := i
		progs[i] = func(pr mcb.Node) {
			pr.AccountAux(int64(cards[id]))
			switch kind {
			case selInit:
				cands := append([]elem(nil), elems[id]...)
				seq.Sort(cands, func(a, b elem) bool { return a.greater(b) })
				total := int(partial.PhasedTotal(pr, int64(len(cands)), partial.Sum, "select:init"))
				nextElems[id] = cands
				if id == 0 {
					out.d, out.m = d, total
				}
			case selFilter:
				cands, nd, nm, found, res := filterIteration(pr, elems[id], d, m, iter, "select:")
				nextElems[id] = cands
				if id == 0 {
					out.d, out.m, out.found, out.res = nd, nm, found, res
				}
			case selCollect:
				got := collectSurvivors(pr, elems[id], d, m, "select:")
				if id == 0 {
					out.res = got
				}
			}
		}
	}
	res, err := env.run(cfg, progs)
	if res != nil {
		st = &res.Stats
	}
	if err != nil {
		return nil, st, err
	}
	for i, l := range nextElems {
		out.state[i] = elemsToCkpt(l)
	}
	// Under a distributed transport only the hosted processors computed
	// their candidate lists, and the agreed scalars were captured at
	// processor 0: exchange both so every peer's driver continues from the
	// identical boundary.
	if xerr := exchangeSlices(env, "select:seg:state", out.state); xerr != nil {
		return nil, st, xerr
	}
	scalars := selSegScalars{D: out.d, M: out.m, Found: out.found, Res: out.res}
	if xerr := exchangeScalar(env, "select:seg:scalars", p, &scalars); xerr != nil {
		return nil, st, xerr
	}
	out.d, out.m, out.found, out.res = scalars.D, scalars.M, scalars.Found, scalars.Res
	return out, st, nil
}

// selSegScalars is the wire form of a segment's globally agreed scalars for
// the processor-0 exchange (elem's fields are exported, so the trip through
// JSON is exact).
type selSegScalars struct {
	D     int  `json:"d"`
	M     int  `json:"m"`
	Found bool `json:"found,omitempty"`
	Res   elem `json:"res"`
}

// verifySelectSnapshot accepts a selection boundary only when the surviving
// candidates are a sub-multiset of the inputs, their total count agrees with
// the snapshot's m, and the target rank is still inside the candidate set.
func verifySelectSnapshot(s *checkpoint.Snapshot, want map[elemKey]int) error {
	if err := verifySnapshotMultiset(s, want, false); err != nil {
		return err
	}
	_, n := snapshotElemCounts(s)
	if n != s.M {
		return fmt.Errorf("snapshot holds %d candidates, m says %d", n, s.M)
	}
	if s.D < 1 || s.D > s.M {
		return fmt.Errorf("snapshot rank d=%d outside [1, %d]", s.D, s.M)
	}
	return nil
}

// selectSnapshotUsable validates an on-disk snapshot against the run being
// resumed. Aux[0] carries the originally requested rank (d mutates as sides
// are purged); the tail lists dead original channels of a recorded
// degradation.
func selectSnapshotUsable(s *checkpoint.Snapshot, algo SelectAlgorithm, p, k, origD int, cards []int, want map[elemKey]int) error {
	switch {
	case s.Kind != "select":
		return fmt.Errorf("snapshot kind %q, want select", s.Kind)
	case s.Algo != algo.String():
		return fmt.Errorf("snapshot algorithm %q, want %q", s.Algo, algo)
	case s.P != p:
		return fmt.Errorf("snapshot has p=%d, run has p=%d", s.P, p)
	case s.K+len(s.Aux)-1 != k:
		return fmt.Errorf("snapshot has k=%d with %d dead channels, run has k=%d", s.K, len(s.Aux)-1, k)
	case len(s.Aux) < 1 || s.Aux[0] != int64(origD):
		return fmt.Errorf("snapshot selects a different rank")
	case !equalCards(s.Cards, cards):
		return fmt.Errorf("snapshot cardinalities differ from the inputs")
	}
	return verifySelectSnapshot(s, want)
}

// SelectWithRetry selects like Select, but verifies and recovers, with the
// structure of SortWithRetry: the filtering algorithm runs as per-iteration
// segments with verified boundary snapshots (into opts.Checkpoints when set,
// in memory only otherwise), the sort baseline — and any run that is not
// resumable — as one whole-run segment, and a retryable failure resumes from
// the last accepted boundary. Every answer is verified by recount (default
// VerifySelect); a rejected answer or a corrupt boundary restarts from
// phase 0. With Retry.DegradeOnOutage set, an outage-attributable failure
// drops the dead channels and resumes from the same boundary on the
// survivors (candidate state is k-agnostic; only the threshold m* is
// recomputed), and the counts of the segments before and after add up in
// the caller's channel numbering. With Retry.DegradeOnCrash set, a CrashError
// restarts with the crashed processors treated as empty — the protocols are
// silence-tolerant, so the computation proceeds without them and answers
// rank opts.D over the surviving elements; the report lists the processors
// given up on in DeadProcs.
func SelectWithRetry(inputs [][]int64, opts SelectOptions) (int64, *SelectReport, error) {
	p := len(inputs)
	if err := validateSelect(inputs, opts.K, opts.D); err != nil {
		return 0, nil, err
	}
	verifier := opts.Verifier
	if verifier == nil {
		verifier = VerifySelect
	}
	store := storeOrNone(opts.Checkpoints)
	pol := opts.Retry
	maxAtt := retryAttempts(pol)
	env := opts.runEnv()

	cs := newChanState(opts.K, opts.Faults)
	segmented := opts.Algorithm == SelFiltering && resumable(maxAtt, opts.Checkpoints)
	cur := inputs
	cards := cardsOf(cur)
	// The boundary state is read only by a multi-segment plan or a store.
	keepState := segmented || opts.Checkpoints != nil
	var (
		elems [][]elem
		want  map[elemKey]int
	)
	if keepState {
		elems = inputElems(cur, false)
		want = elemCounts(elems)
	}
	var deadProcs []int

	freshSnap := func() *checkpoint.Snapshot {
		s := &checkpoint.Snapshot{
			Kind: "select", Algo: opts.Algorithm.String(), P: p, K: cs.k(),
			D: opts.D, M: sumInts(cards),
			Cards: append([]int(nil), cards...),
			Aux:   append([]int64{int64(opts.D)}, cs.deadAux()...),
			State: make([][]checkpoint.Elem, p),
		}
		for i, l := range elems {
			s.State[i] = elemsToCkpt(l)
		}
		return s
	}

	rep := &SelectReport{Algorithm: opts.Algorithm}
	var accepted mcb.Stats

	var snap *checkpoint.Snapshot
	if opts.Resume {
		if ls, lerr := store.Latest(); lerr == nil && ls != nil {
			if rerr := selectSnapshotUsable(ls, opts.Algorithm, p, opts.K, opts.D, cards, want); rerr == nil {
				if cs.restoreDead(ls.Aux[1:]) {
					snap = ls
					if ls.Phase > 0 {
						// A cross-process continuation is a resume: this
						// invocation starts at an accepted boundary, not
						// cycle 0.
						ls.Resumes++
					}
					rep.Resumes = ls.Resumes
					rep.CheckpointPhase = ls.PhaseName
				}
			}
		}
	}
	if snap == nil {
		if err := store.Clear(); err != nil {
			return 0, nil, err
		}
		snap = freshSnap()
		if err := store.Save(snap); err != nil {
			return 0, nil, err
		}
	}
	if len(cs.deadOrig) > 0 {
		rep.DegradedK = cs.k()
		rep.DeadChannels = append([]int(nil), cs.deadOrig...)
	}
	hist := newPhaseHistory(env)
	hist.record(snap, &accepted)
	// Distributed runs align the peer drivers at the start of every attempt
	// (see resyncPhases); in-process runs skip the exchange entirely.
	needSync := true

	finishReport := func() {
		rep.Stats = accepted
		rep.derivePhaseDiagnostics()
		rep.Attempts = snap.Attempt + 1
		rep.Resumes = snap.Resumes
		rep.ReplayedCycles = snap.ReplayedCycles
		rep.DeadProcs = append([]int(nil), deadProcs...)
	}

	restart := func() error {
		snap2 := freshSnap()
		snap2.Attempt = snap.Attempt
		snap2.Resumes = snap.Resumes
		snap2.ReplayedCycles = snap.ReplayedCycles + snap.CyclesDone
		snap = snap2
		accepted = mcb.Stats{}
		hist.reset()
		hist.record(snap, &accepted)
		if err := store.Clear(); err != nil {
			return err
		}
		return store.Save(snap)
	}

	accept := func(cand *checkpoint.Snapshot, st *mcb.Stats) error {
		cand.CyclesDone += st.Cycles
		cand.MessagesDone += st.Messages
		cand.Aux = append([]int64{int64(opts.D)}, cs.deadAux()...)
		cand.K = cs.k()
		if err := verifySelectSnapshot(cand, want); err != nil {
			return corruptionError("select checkpoint", err)
		}
		if err := store.Save(cand); err != nil {
			return err
		}
		snap = cand
		accepted.Add(cs.toOrig(st))
		hist.record(snap, &accepted)
		return nil
	}

	for {
		if needSync {
			rs, rerr := resyncPhases(env, "select", p, snap, hist, &accepted)
			if rerr != nil {
				if !mcb.Retryable(rerr) || snap.Attempt+1 >= maxAtt {
					finishReport()
					return 0, rep, rerr
				}
				snap.Attempt++
				retryBackoff(pol, snap.Attempt)
				continue
			}
			if rs != snap {
				snap = rs
				rep.CheckpointPhase = snap.PhaseName
			}
			needSync = false
		}
		threshold := selectThreshold(p, cs.k(), opts.Threshold)
		snap.Threshold = threshold
		plan := cs.curPlan.ForAttempt(snap.Attempt).Shift(snap.CyclesDone)
		cfg := opts.engineConfig(p)
		cfg.K = cs.k()
		cfg.Faults = plan
		cfg.MaxCycles = segmentBudget(opts.MaxCycles, snap.CyclesDone)

		var (
			kind selSegKind
			name string
		)
		switch {
		case !segmented:
			kind = selWhole
		case snap.Phase == 0:
			kind, name = selInit, "select:init"
		case snap.M > threshold:
			kind, name = selFilter, fmt.Sprintf("select:filter:%02d", snap.Iter)
		default:
			kind, name = selCollect, "select:collect"
		}

		var (
			out *selSegOut
			st  *mcb.Stats
			err error
		)
		if kind == selWhole {
			wopts := opts
			wopts.K, wopts.Faults, wopts.MaxCycles = cfg.K, cfg.Faults, cfg.MaxCycles
			val, wrep, werr := Select(cur, wopts)
			if wrep != nil {
				st = &wrep.Stats
			}
			out, err = &selSegOut{res: elem{V: val}}, werr
		} else {
			out, st, err = runSelectSegment(env, kind, snap.State, snap.Cards, snap.D, snap.M, snap.Iter, cfg)
		}
		if err == nil {
			switch {
			case kind == selCollect || kind == selWhole || out.found:
				// Terminal: verify the answer against the (possibly
				// degraded) inputs by recount.
				val := out.res.V
				if verr := verifier(cur, opts.D, val); verr != nil {
					err = corruptionError("select", verr)
					break
				}
				accepted.Add(cs.toOrig(st))
				snap.CyclesDone += st.Cycles
				snap.MessagesDone += st.Messages
				finishReport()
				return val, rep, nil
			default:
				cand := snap.Clone()
				cand.Phase++
				cand.PhaseName = name
				cand.State = out.state
				cand.D, cand.M = out.d, out.m
				if kind == selFilter {
					cand.Iter++
				}
				err = accept(cand, st)
				if err == nil {
					continue
				}
				if !isCorruption(err) {
					return 0, nil, err // store failure
				}
			}
		}

		// Segment failed (typed engine error, corrupt boundary, or a wrong
		// final answer): the cycles it burned are replayed work.
		if st != nil {
			snap.ReplayedCycles += st.Cycles
		}
		if !mcb.Retryable(err) || snap.Attempt+1 >= maxAtt {
			finishReport()
			return 0, rep, err
		}
		var crash *mcb.CrashError
		degradeCrash := pol.DegradeOnCrash && errors.As(err, &crash)
		if degradeCrash {
			// Give the dead processors up: their candidates are lost, so
			// every checkpoint containing them is untrustworthy — the run
			// restarts with the processors emptied and their scheduled
			// crashes removed.
			cur = emptyProcs(cur, crash.Procs)
			deadProcs = mergeProcs(deadProcs, crash.Procs)
			cs.curPlan = cs.curPlan.WithoutCrashes(crash.Procs)
			cards = cardsOf(cur)
			if keepState {
				elems = inputElems(cur, false)
				want = elemCounts(elems)
			}
			if remaining := sumInts(cards); opts.D > remaining {
				finishReport()
				return 0, rep, fmt.Errorf("core: graceful degradation lost too many elements: rank %d > %d survivors: %w", opts.D, remaining, err)
			}
		}
		snap.Attempt++
		retryBackoff(pol, snap.Attempt)
		needSync = true

		switch {
		case degradeCrash || isCorruption(err):
			// Degraded inputs, or accepted checkpoints that may carry the
			// same silent corruption: full restart.
			if rerr := restart(); rerr != nil {
				return 0, nil, rerr
			}
		default:
			if suspects := outageSuspects(pol, plan, st); len(suspects) > 0 && cs.k()-len(suspects) >= 1 {
				// Candidate state does not depend on k: drop the dead
				// channels and resume from the same checkpoint on the
				// survivors.
				cs.degrade(suspects)
				rep.DegradedK = cs.k()
				rep.DeadChannels = append([]int(nil), cs.deadOrig...)
			}
			snap.Resumes++
			rep.CheckpointPhase = snap.PhaseName
		}
	}
}

// sumInts sums a list of counts.
func sumInts(a []int) int {
	n := 0
	for _, c := range a {
		n += c
	}
	return n
}

// isCorruption reports whether err is (or wraps) a CorruptionError.
func isCorruption(err error) bool {
	var ce *mcb.CorruptionError
	return errors.As(err, &ce)
}
