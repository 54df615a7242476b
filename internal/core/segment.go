package core

import (
	"fmt"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/mcb"
)

// This file is the shared infrastructure of the recovery drivers' segmented
// execution paths: element-state conversion to and from checkpoint snapshots,
// multiset verification of a snapshot against the run's inputs, and the
// channel bookkeeping of the k' < k degradation retry. The drivers live in
// sortseg.go and selectseg.go.

// elemKey is the network-unique identity of an element: the (V, T) pair of
// the paper's lexicographic-triple device (T is unique network-wide).
type elemKey struct{ v, t int64 }

// inputElems builds the internal-space element lists exactly as the
// processor programs do (negated under Ascending order), so host-side
// multiset verification compares like with like.
func inputElems(inputs [][]int64, negate bool) [][]elem {
	out := make([][]elem, len(inputs))
	for i, in := range inputs {
		vals := in
		if negate {
			vals = make([]int64, len(in))
			for j, v := range in {
				vals[j] = -v
			}
		}
		out[i] = makeElems(i, vals)
	}
	return out
}

// elemCounts builds the (V, T) multiset of a distributed element state.
func elemCounts(state [][]elem) map[elemKey]int {
	m := make(map[elemKey]int)
	for _, l := range state {
		for _, e := range l {
			m[elemKey{e.V, e.T}]++
		}
	}
	return m
}

// snapshotElemCounts builds the (V, T) multiset of a snapshot's non-dummy
// elements, and returns the non-dummy element count.
func snapshotElemCounts(s *checkpoint.Snapshot) (map[elemKey]int, int) {
	m := make(map[elemKey]int)
	n := 0
	for _, l := range s.State {
		for _, e := range l {
			if e.Dummy {
				continue
			}
			m[elemKey{e.V, e.T}]++
			n++
		}
	}
	return m, n
}

// verifySnapshotMultiset checks a snapshot's non-dummy elements against the
// input multiset before the snapshot is accepted. A sort boundary must
// conserve the multiset exactly; a selection boundary holds a subset (purged
// candidates are gone for good). Either way no element may appear that the
// input never contained — that is the corruption signal.
func verifySnapshotMultiset(s *checkpoint.Snapshot, want map[elemKey]int, exact bool) error {
	got, n := snapshotElemCounts(s)
	for k, c := range got {
		if c > want[k] {
			return fmt.Errorf("element (%d,%d) appears %d times, input has %d", k.v, k.t, c, want[k])
		}
	}
	if exact {
		total := 0
		for _, c := range want {
			total += c
		}
		if n != total {
			return fmt.Errorf("snapshot holds %d elements, input has %d", n, total)
		}
	}
	return nil
}

// elemsToCkpt converts an element list to snapshot form (no dummies).
func elemsToCkpt(l []elem) []checkpoint.Elem {
	out := make([]checkpoint.Elem, len(l))
	for i, e := range l {
		out[i] = checkpoint.Elem{V: e.V, T: e.T, P: e.P}
	}
	return out
}

// ckptToElems converts snapshot elements back, rejecting dummies (element
// lists never contain padding).
func ckptToElems(l []checkpoint.Elem) ([]elem, error) {
	out := make([]elem, len(l))
	for i, e := range l {
		if e.Dummy {
			return nil, fmt.Errorf("unexpected dummy cell at index %d", i)
		}
		out[i] = elem{V: e.V, T: e.T, P: e.P}
	}
	return out, nil
}

// cellsToCkpt converts a gathered column (including its padding dummies,
// whose positions are part of the mid-Columnsort state) to snapshot form.
func cellsToCkpt(l []cell) []checkpoint.Elem {
	out := make([]checkpoint.Elem, len(l))
	for i, c := range l {
		if c.dummy {
			out[i] = checkpoint.Elem{Dummy: true}
		} else {
			out[i] = checkpoint.Elem{V: c.e.V, T: c.e.T, P: c.e.P}
		}
	}
	return out
}

// ckptToCells converts snapshot elements back into column cells.
func ckptToCells(l []checkpoint.Elem) []cell {
	out := make([]cell, len(l))
	for i, e := range l {
		if e.Dummy {
			out[i] = cell{dummy: true}
		} else {
			out[i] = cell{e: elem{V: e.V, T: e.T, P: e.P}}
		}
	}
	return out
}

// cardsOf returns the per-processor cardinalities of the inputs.
func cardsOf(inputs [][]int64) []int {
	cards := make([]int, len(inputs))
	for i := range inputs {
		cards[i] = len(inputs[i])
	}
	return cards
}

func equalCards(a []int, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chanState is the channel bookkeeping of the k' < k degradation retry. The
// run always executes on a dense channel index space [0, k'); survivors maps
// those back to the caller's original channel indices, and the fault plan is
// kept remapped accordingly.
type chanState struct {
	origK     int
	survivors []int // survivors[cur] = original index of current channel cur
	deadOrig  []int // dropped channels, original indices, ascending
	basePlan  *mcb.FaultPlan
	curPlan   *mcb.FaultPlan // basePlan with dead outages removed, survivors renumbered
}

func newChanState(k int, plan *mcb.FaultPlan) *chanState {
	cs := &chanState{origK: k, basePlan: plan, curPlan: plan}
	cs.survivors = make([]int, k)
	for i := range cs.survivors {
		cs.survivors[i] = i
	}
	return cs
}

func (cs *chanState) k() int { return len(cs.survivors) }

// degrade drops the given current-space channels: it records their original
// indices as dead, renumbers the survivors, and remaps the fault plan into
// the new dense space. Returns false when fewer than one channel would
// survive (degradation impossible).
func (cs *chanState) degrade(curDead []int) bool {
	if len(curDead) == 0 || cs.k()-len(curDead) < 1 {
		return false
	}
	deadSet := make(map[int]bool, len(curDead))
	for _, ch := range curDead {
		deadSet[ch] = true
		cs.deadOrig = append(cs.deadOrig, cs.survivors[ch])
	}
	sortInts(cs.deadOrig)
	var kept []int
	oldToNew := make([]int, cs.k())
	for cur, orig := range cs.survivors {
		if deadSet[cur] {
			oldToNew[cur] = -1
			continue
		}
		oldToNew[cur] = len(kept)
		kept = append(kept, orig)
	}
	cs.survivors = kept
	// Remap the plan: dead channels' outages vanish with the channels, the
	// survivors' windows follow their new indices.
	plan := cs.curPlan.WithoutOutages(curDead)
	if plan != nil {
		for i := range plan.Outages {
			plan.Outages[i].Ch = oldToNew[plan.Outages[i].Ch]
		}
	}
	cs.curPlan = plan
	return true
}

// restoreDead replays a recorded degradation (cross-process resume: the
// snapshot carries the dead original channel indices). Returns false if the
// list is not a valid strict subset of the original channels.
func (cs *chanState) restoreDead(deadOrig []int64) bool {
	if len(deadOrig) == 0 {
		return true
	}
	cur := make([]int, 0, len(deadOrig))
	for _, o := range deadOrig {
		found := -1
		for c, orig := range cs.survivors {
			if int64(orig) == o {
				found = c
				break
			}
		}
		if found < 0 {
			return false
		}
		cur = append(cur, found)
	}
	return cs.degrade(cur)
}

// toOrig renumbers a segment's per-channel counts (the run's, each phase's
// and the outage losses') from the current dense channel space into the
// caller's channel numbering, so the segments run before and after a
// degradation add up per channel: a dropped channel keeps what it carried
// before, and a survivor's counts land on its own index. Returns st itself
// while no channel has been dropped.
func (cs *chanState) toOrig(st *mcb.Stats) *mcb.Stats {
	if len(cs.deadOrig) == 0 {
		return st
	}
	out := *st
	out.PerChannel = cs.origVec(st.PerChannel)
	out.Faults.OutagePerChannel = cs.origVec(st.Faults.OutagePerChannel)
	out.Phases = make([]mcb.PhaseStats, len(st.Phases))
	for i, ph := range st.Phases {
		ph.PerChannel = cs.origVec(ph.PerChannel)
		out.Phases[i] = ph
	}
	return &out
}

// origVec spreads a current-space channel vector over the original k
// channels (nil stays nil).
func (cs *chanState) origVec(v []int64) []int64 {
	if v == nil {
		return nil
	}
	out := make([]int64, cs.origK)
	for c, n := range v {
		out[cs.survivors[c]] = n
	}
	return out
}

// deadAux renders the dead-channel list for Snapshot.Aux.
func (cs *chanState) deadAux() []int64 {
	if len(cs.deadOrig) == 0 {
		return nil
	}
	out := make([]int64, len(cs.deadOrig))
	for i, ch := range cs.deadOrig {
		out[i] = int64(ch)
	}
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// outageSuspects inspects a failed segment and returns the current-space
// channels the failure is attributable to (nil when degradation does not
// apply). plan must be the exact plan the failed run executed under, so the
// window coordinates match the run's cycle numbering.
func outageSuspects(pol mcb.RetryPolicy, plan *mcb.FaultPlan, st *mcb.Stats) []int {
	if !pol.DegradeOnOutage || st == nil {
		return nil
	}
	return mcb.OutageSuspects(plan, &st.Faults, st.Cycles)
}

// segmentBudget converts a whole-run MaxCycles budget into the budget of the
// next segment, given the accepted cycles so far. An exhausted budget leaves
// 1 cycle so the engine raises its usual typed BudgetError.
func segmentBudget(maxCycles, done int64) int64 {
	if maxCycles <= 0 {
		return 0
	}
	if rem := maxCycles - done; rem > 0 {
		return rem
	}
	return 1
}
