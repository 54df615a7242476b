package core

import (
	"fmt"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/matrix"
	"mcbnet/internal/mcb"
	"mcbnet/internal/schedule"
)

// This file is the sort's recovery driver, SortWithRetry, and the segmented
// execution of the gathered Columnsort: the monolithic pipeline of
// gatherSort is cut at its phase boundaries into segments, each run as its
// own engine invocation on a fresh network. Between segments the full
// distributed state (the gathered columns at the representatives) is
// host-held, multiset-verified and snapshotted, and re-injected into the
// next segment's programs — so a typed failure replays only the failed
// segment, and with a checkpoint store a resumed host process continues from
// the last accepted boundary on disk.

// hostGroups replicates the outcome of the formGroups network protocol as a
// pure function of the cardinalities and the channel count: the group table
// is deterministic global knowledge, so the host can recompute it when
// resuming without replaying phase 0a. TestComputeGroupTableMatchesProtocol
// cross-checks it against the protocol.
type hostGroups struct {
	n, nMax int
	m       int // padded column length
	G       int // number of groups (= Columnsort columns)

	prefix   []int // inclusive cardinality prefix per processor
	myGroup  []int
	myOffset []int
	groups   []groupMeta
}

// computeGroupTable mirrors formGroups: prefix sums, the group-size limit
// ceil(n/c) + nMax - 1, and the greedy representative-selection rounds.
// Assigned processors always form a prefix of the id space, so the rounds
// reduce to a single left-to-right sweep with a running base offset.
func computeGroupTable(cards []int, k int) *hostGroups {
	p := len(cards)
	hg := &hostGroups{
		prefix:   make([]int, p),
		myGroup:  make([]int, p),
		myOffset: make([]int, p),
	}
	at := 0
	for i, c := range cards {
		at += c
		hg.prefix[i] = at
		if c > hg.nMax {
			hg.nMax = c
		}
	}
	hg.n = at
	cols := k
	if mc := maxUsableCols(hg.n, k); mc < cols {
		cols = mc
	}
	limit := (hg.n+cols-1)/cols + hg.nMax - 1

	base := 0  // elements already assigned to earlier groups
	start := 0 // first unassigned processor
	for {
		rep := -1
		for i := start; i < p; i++ {
			if hg.prefix[i]-base > limit {
				break // prefixes are non-decreasing: nobody further qualifies
			}
			if i == p-1 || hg.prefix[i+1]-base > limit {
				rep = i
				break
			}
		}
		size := hg.prefix[rep] - base
		gi := len(hg.groups)
		hg.groups = append(hg.groups, groupMeta{rep: rep, size: size})
		for i := start; i <= rep; i++ {
			hg.myGroup[i] = gi
			hg.myOffset[i] = (hg.prefix[i] - base) - cards[i]
		}
		if rep == p-1 {
			break
		}
		base = hg.prefix[rep]
		start = rep + 1
	}
	hg.G = len(hg.groups)
	hg.m = (&groupInfo{groups: hg.groups}).paddedColLen()
	return hg
}

// infoFor reconstructs processor id's groupInfo, as formGroups would have
// produced it.
func (hg *hostGroups) infoFor(id int) *groupInfo {
	return &groupInfo{
		n: hg.n, nMax: hg.nMax, prefix: hg.prefix[id],
		myGroup: hg.myGroup[id], myOffset: hg.myOffset[id],
		groups: hg.groups,
	}
}

// sortSegKind enumerates the segment shapes of a sort.
type sortSegKind int

const (
	segCollect      sortSegKind = iota // phase 0: formation + collection
	segTransform                       // one local sort + one transformation phase
	segRedistribute                    // final local sort + phase 10
	segWhole                           // the whole sort as one Sort run
)

// sortSegment describes one independently startable phase segment.
type sortSegment struct {
	name          string // checkpoint phase name (matches the engine phase label)
	kind          sortSegKind
	transformName string           // schedule name for segTransform
	transform     matrix.Transform // permutation for segTransform
	sortSkipCol0  bool             // the preceding local sort skips column 0 (paper's phase 7)
}

// wholeSort is the one-segment plan: the whole sort as one Sort run.
var wholeSort = []sortSegment{{name: "sort", kind: segWhole}}

// sortSegments builds the segment plan of a sort. The gathered Columnsort
// over G columns runs as collection, one segment per Columnsort
// transformation phase (each prefixed by its cost-free local sort), and
// redistribution (prefixed by the final sort); G == 1 degenerates to
// [collect, redistribute]. Every other algorithm is one whole-run segment.
func sortSegments(algo Algorithm, G int) []sortSegment {
	if algo != AlgoColumnsortGather {
		return wholeSort
	}
	segs := []sortSegment{{name: "phase0:collect", kind: segCollect}}
	if G > 1 {
		skip := false
		for _, ph := range matrix.Phases() {
			switch ph.Kind {
			case matrix.PhaseSort:
				skip = ph.SkipCol0
			case matrix.PhaseTransform:
				segs = append(segs, sortSegment{
					name:          "phase" + itoa(ph.Num) + ":" + ph.Name,
					kind:          segTransform,
					transformName: ph.Name,
					transform:     ph.Transform,
					sortSkipCol0:  skip,
				})
			}
		}
	}
	return append(segs, sortSegment{name: "phase10:redistribution", kind: segRedistribute})
}

// runSortSegment executes one gathered-Columnsort segment as its own engine
// run. state is the snapshot element state entering the segment
// (per-processor inputs for segCollect, gathered columns otherwise); it is
// cloned before injection, so a failed run never taints the checkpointed
// state. It returns the state after the boundary (nil for segRedistribute)
// and, for segRedistribute, the per-processor sorted outputs in the caller's
// order. st is the run's (possibly partial) cost, nil when the engine could
// not collect it.
func runSortSegment(env runEnv, seg sortSegment, state [][]checkpoint.Elem, hg *hostGroups, cfg mcb.Config, negate bool) (nextState [][]checkpoint.Elem, outputs [][]int64, st *mcb.Stats, err error) {
	p := cfg.P
	sh := matrix.Shape{M: hg.m, K: hg.G}
	cols := make([][]cell, p)
	elems := make([][]elem, p)
	for i, l := range state {
		if seg.kind == segCollect {
			e, cerr := ckptToElems(l)
			if cerr != nil {
				return nil, nil, nil, fmt.Errorf("core: bad checkpoint state for processor %d: %w", i, cerr)
			}
			elems[i] = e
		} else {
			cols[i] = ckptToCells(l)
		}
	}
	outCols := make([][]cell, p)
	outElems := make([][]elem, p)

	progs := make([]func(mcb.Node), p)
	for i := range progs {
		id := i
		progs[i] = func(pr mcb.Node) {
			rec := &phaser{pr}
			g := hg.infoFor(id)
			isRep := id == g.groups[g.myGroup].rep
			myCol := g.myGroup
			switch seg.kind {
			case segCollect:
				rec.mark("phase0a:formation")
				// Run the real protocol (its cycles are part of the cost);
				// the host-computed table must agree with its outcome.
				pg := formGroups(pr, len(elems[id]), pr.K())
				if pg.myGroup != g.myGroup || pg.myOffset != g.myOffset || len(pg.groups) != len(g.groups) {
					pr.Abortf("core: group table mismatch between protocol and host (proc %d)", id)
				}
				rec.mark("phase0b:collection")
				outCols[id] = collectColumn(pr, elems[id], g, hg.m, isRep, myCol)
			case segTransform:
				col := cols[id]
				if isRep {
					pr.AccountAux(int64(2 * hg.m))
					if !(seg.sortSkipCol0 && myCol == 0) {
						sortCells(col)
					}
				}
				kind, ok := schedule.KindOf(seg.transformName)
				if !ok {
					pr.Abortf("core: unknown transform %q", seg.transformName)
				}
				sched := scheduleFor(sh, kind)
				rec.mark(seg.name)
				runTransform(pr, sh, seg.transform, sched, isRep, myCol, col)
				outCols[id] = col
			case segRedistribute:
				col := cols[id]
				if isRep {
					pr.AccountAux(int64(2 * hg.m))
					sortCells(col)
				}
				if hg.G == 1 {
					rec.mark("phases1-9:single-column-sort")
				}
				rec.mark("phase10:redistribution")
				ni := hg.prefix[id]
				if id > 0 {
					ni -= hg.prefix[id-1]
				}
				outElems[id] = redistribute(pr, sh, g, isRep, myCol, col, ni)
			}
		}
	}
	res, err := env.run(cfg, progs)
	if res != nil {
		st = &res.Stats
	}
	if err != nil {
		return nil, nil, st, err
	}
	if seg.kind == segRedistribute {
		// Under a distributed transport only the hosted processors'
		// outputs were produced locally; gather the rest so every peer's
		// driver sees the identical final table.
		if xerr := exchangeSlices(env, "sort:"+seg.name, outElems); xerr != nil {
			return nil, nil, st, xerr
		}
		outputs = make([][]int64, p)
		for i, l := range outElems {
			o := make([]int64, len(l))
			for j, e := range l {
				if negate {
					o[j] = -e.V
				} else {
					o[j] = e.V
				}
			}
			outputs[i] = o
		}
		return nil, outputs, st, nil
	}
	nextState = make([][]checkpoint.Elem, p)
	for i, c := range outCols {
		if c != nil {
			nextState[i] = cellsToCkpt(c)
		}
	}
	// Boundary state exchange: every peer snapshots (and verifies) the
	// complete distributed state, keeping the redundant checkpoint drivers
	// byte-identical across the group.
	if xerr := exchangeSlices(env, "sort:"+seg.name, nextState); xerr != nil {
		return nil, nil, st, xerr
	}
	return nextState, nil, st, nil
}

// SortWithRetry sorts like Sort, but verifies and recovers. It runs the
// sort's segment plan (see sortSegments; one segment when the run is not
// resumable), each segment its own engine run on a fresh network under the
// attempt's fault plan (mcb.FaultPlan.ForAttempt, shifted to the segment's
// start): stochastic faults strike elsewhere on a retry, scripted crashes and
// outages persist. Every phase boundary is multiset-verified and
// snapshotted — into opts.Checkpoints when set, in memory only otherwise —
// and a retryable failure resumes from the last accepted boundary, replaying
// only the failed segment. A failure attributable to scripted channel
// outages (Retry.DegradeOnOutage) drops the dead channels and restarts from
// phase 0 on the k' < k survivors (the Columnsort column structure depends on
// k); the report's per-channel counts stay in the caller's channel
// numbering. The output is accepted only when
// it passes the verifier (default VerifySort: sortedness, cardinality
// preservation, multiset-permutation of the input); a rejected output
// restarts from phase 0, since multiset conservation cannot vouch for element
// positions. After Retry.MaxAttempts attempts the last error (typed, matching
// errors.As against the mcb taxonomy) is returned with a partial report.
func SortWithRetry(inputs [][]int64, opts SortOptions) ([][]int64, *Report, error) {
	p := len(inputs)
	algo, err := validateSort(inputs, opts)
	if err != nil {
		return nil, nil, err
	}
	verifier := opts.Verifier
	if verifier == nil {
		verifier = VerifySort
	}
	store := storeOrNone(opts.Checkpoints)
	negate := opts.Order == Ascending
	order := 0
	if negate {
		order = 1
	}
	cards := cardsOf(inputs)
	pol := opts.Retry
	maxAtt := retryAttempts(pol)
	env := opts.runEnv()

	cs := newChanState(opts.K, opts.Faults)
	segmented := algo == AlgoColumnsortGather && resumable(maxAtt, opts.Checkpoints)
	// The boundary state is read only by a multi-segment plan or a store.
	var (
		elems [][]elem
		want  map[elemKey]int
	)
	if segmented || opts.Checkpoints != nil {
		elems = inputElems(inputs, negate)
		want = elemCounts(elems)
	}

	freshSnap := func() *checkpoint.Snapshot {
		s := &checkpoint.Snapshot{
			Kind: "sort", Algo: algo.String(), P: p, K: cs.k(),
			Order: order, Cards: append([]int(nil), cards...),
			Aux:   cs.deadAux(),
			State: make([][]checkpoint.Elem, p),
		}
		for i, l := range elems {
			s.State[i] = elemsToCkpt(l)
		}
		return s
	}

	rep := &Report{Algorithm: algo}
	var accepted mcb.Stats // cost of the accepted path executed by this process

	var snap *checkpoint.Snapshot
	if opts.Resume {
		if ls, lerr := store.Latest(); lerr == nil && ls != nil {
			if rerr := sortSnapshotUsable(ls, algo, p, opts.K, order, cards, want); rerr == nil {
				if cs.restoreDead(ls.Aux) {
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
		// Fresh start (or unusable on-disk state): discard stale snapshots
		// and anchor the run with its phase-0 snapshot.
		if err := store.Clear(); err != nil {
			return nil, nil, err
		}
		snap = freshSnap()
		if err := store.Save(snap); err != nil {
			return nil, nil, err
		}
	}
	if len(cs.deadOrig) > 0 {
		rep.DegradedK = cs.k()
		rep.DeadChannels = append([]int(nil), cs.deadOrig...)
	}

	hg := computeGroupTable(cards, cs.k())
	segs := wholeSort
	if segmented {
		segs = sortSegments(algo, hg.G)
	}
	hist := newPhaseHistory(env)
	hist.record(snap, &accepted)
	// Distributed runs align the peer drivers at the start of every attempt
	// (see resyncPhases); in-process runs skip the exchange entirely.
	needSync := true

	finishReport := func() {
		rep.Stats = accepted
		rep.Attempts = snap.Attempt + 1
		rep.Resumes = snap.Resumes
		rep.ReplayedCycles = snap.ReplayedCycles
		rep.PhaseCycles = phaseCyclesFrom(accepted.Phases)
		if algo == AlgoColumnsortGather {
			rep.Columns, rep.ColumnLen = hg.G, hg.m
		}
	}

	// restart resets to phase 0 under the current channel state, discarding
	// every accepted cycle (they become replayed work).
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

	for {
		if needSync {
			rs, rerr := resyncPhases(env, "sort", p, snap, hist, &accepted)
			if rerr != nil {
				if !mcb.Retryable(rerr) || snap.Attempt+1 >= maxAtt {
					finishReport()
					return nil, rep, rerr
				}
				snap.Attempt++
				retryBackoff(pol, snap.Attempt)
				continue
			}
			if rs != snap {
				// Rewound to the group minimum: report the boundary the run
				// actually continues from.
				snap = rs
				rep.CheckpointPhase = snap.PhaseName
			}
			needSync = false
		}
		seg := segs[snap.Phase]
		plan := cs.curPlan.ForAttempt(snap.Attempt).Shift(snap.CyclesDone)
		cfg := opts.engineConfig(p)
		cfg.K = cs.k()
		cfg.Faults = plan
		cfg.MaxCycles = segmentBudget(opts.MaxCycles, snap.CyclesDone)

		var (
			nextState [][]checkpoint.Elem
			outputs   [][]int64
			st        *mcb.Stats
			err       error
		)
		if seg.kind == segWhole {
			wopts := opts
			wopts.K, wopts.Faults, wopts.MaxCycles = cfg.K, cfg.Faults, cfg.MaxCycles
			var wrep *Report
			if outputs, wrep, err = Sort(inputs, wopts); wrep != nil {
				st = &wrep.Stats
				rep.Columns, rep.ColumnLen = wrep.Columns, wrep.ColumnLen
			}
		} else {
			nextState, outputs, st, err = runSortSegment(env, seg, snap.State, hg, cfg, negate)
		}
		if err == nil && nextState != nil {
			// Boundary reached: snapshot, verify, accept.
			cand := snap.Clone()
			cand.Phase++
			cand.PhaseName = seg.name
			cand.State = nextState
			cand.CyclesDone += st.Cycles
			cand.MessagesDone += st.Messages
			if verr := verifySnapshotMultiset(cand, want, true); verr != nil {
				err = corruptionError("sort checkpoint", verr)
			} else {
				if serr := store.Save(cand); serr != nil {
					return nil, nil, serr
				}
				snap = cand
				accepted.Add(cs.toOrig(st))
				hist.record(snap, &accepted)
				continue
			}
		}
		// A rejected final output means the accepted checkpoints may carry
		// the same silent corruption (multiset conservation does not check
		// positions): recovery restarts from phase 0.
		rejected := false
		if err == nil {
			verr := verifier(inputs, outputs, opts.Order)
			if verr == nil {
				accepted.Add(cs.toOrig(st))
				snap.CyclesDone += st.Cycles
				snap.MessagesDone += st.Messages
				finishReport()
				return outputs, rep, nil
			}
			err = corruptionError("sort", verr)
			rejected = true
		}

		// The failed segment's cycles are replayed work.
		if st != nil {
			snap.ReplayedCycles += st.Cycles
		}
		if !mcb.Retryable(err) || snap.Attempt+1 >= maxAtt {
			finishReport()
			return nil, rep, err
		}
		snap.Attempt++
		retryBackoff(pol, snap.Attempt)
		needSync = true

		suspects := outageSuspects(pol, plan, st)
		switch {
		case rejected:
			if rerr := restart(); rerr != nil {
				return nil, nil, rerr
			}
		case len(suspects) > 0 && cs.k()-len(suspects) >= 1:
			// The failure is attributable to scripted channel outages:
			// drop the dead channels and re-run on the k' survivors. The
			// Columnsort column structure depends on k, so the degraded
			// sort restarts from phase 0.
			cs.degrade(suspects)
			rep.DegradedK = cs.k()
			rep.DeadChannels = append([]int(nil), cs.deadOrig...)
			hg = computeGroupTable(cards, cs.k())
			segs = sortSegments(algo, hg.G)
			if rerr := restart(); rerr != nil {
				return nil, nil, rerr
			}
		default:
			// Resume from the last accepted boundary: only the failed
			// segment is replayed.
			snap.Resumes++
			rep.CheckpointPhase = snap.PhaseName
		}
	}
}

// sortSnapshotUsable validates an on-disk snapshot against the run being
// resumed: kind, algorithm, shape, order and cardinalities must match, and
// the snapshot's elements must be drawn from the input multiset (exactly,
// for a sort). K may be smaller than the run's K (a recorded degradation,
// restored separately via Aux).
func sortSnapshotUsable(s *checkpoint.Snapshot, algo Algorithm, p, k, order int, cards []int, want map[elemKey]int) error {
	switch {
	case s.Kind != "sort":
		return fmt.Errorf("snapshot kind %q, want sort", s.Kind)
	case s.Algo != algo.String():
		return fmt.Errorf("snapshot algorithm %q, want %q", s.Algo, algo)
	case s.P != p:
		return fmt.Errorf("snapshot has p=%d, run has p=%d", s.P, p)
	case s.K+len(s.Aux) != k:
		return fmt.Errorf("snapshot has k=%d with %d dead channels, run has k=%d", s.K, len(s.Aux), k)
	case s.Order != order:
		return fmt.Errorf("snapshot order %d, run order %d", s.Order, order)
	case !equalCards(s.Cards, cards):
		return fmt.Errorf("snapshot cardinalities differ from the inputs")
	case s.Phase >= len(sortSegments(algo, computeGroupTable(cards, s.K).G)):
		return fmt.Errorf("snapshot phase %d out of range", s.Phase)
	}
	return verifySnapshotMultiset(s, want, true)
}
