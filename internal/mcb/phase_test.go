package mcb

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"mcbnet/internal/trace"
)

// TestPhaseRecording checks the core phase accounting: markers open named
// entries, every cycle and message lands in the active phase, and the
// per-phase breakdown sums back to the whole-run totals.
func TestPhaseRecording(t *testing.T) {
	c := cfg(2, 1)
	c.Recorder = trace.New(2, 1, 64)
	prog := func(pr Node) {
		pr.Phase("work")
		for i := 0; i < 2; i++ {
			if pr.ID() == 0 {
				pr.Write(0, MsgX(0, int64(i)))
			} else {
				pr.Read(0)
			}
		}
		pr.Phase("drain")
		for i := 0; i < 3; i++ {
			pr.Idle()
		}
	}
	res, err := RunUniform(c, prog)
	if err != nil {
		t.Fatal(err)
	}
	s := &res.Stats
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %+v, want 2 entries", s.Phases)
	}
	work, drain := s.Phases[0], s.Phases[1]
	if work.Name != "work" || drain.Name != "drain" {
		t.Fatalf("phase order = %q, %q", work.Name, drain.Name)
	}
	if work.Cycles != 2 || work.Messages != 2 {
		t.Errorf("work = %+v, want 2 cycles 2 messages", work)
	}
	if work.Utilization != 1.0 {
		t.Errorf("work utilization = %v, want 1.0", work.Utilization)
	}
	if len(work.PerChannel) != 1 || work.PerChannel[0] != 2 {
		t.Errorf("work per-channel = %v", work.PerChannel)
	}
	if drain.Cycles != 3 || drain.Messages != 0 {
		t.Errorf("drain = %+v, want 3 cycles 0 messages", drain)
	}
	var cyc, msg int64
	for _, ph := range s.Phases {
		cyc += ph.Cycles
		msg += ph.Messages
	}
	if cyc != s.Cycles || msg != s.Messages {
		t.Errorf("phase sums %d/%d != totals %d/%d", cyc, msg, s.Cycles, s.Messages)
	}
	// The recorded traffic carries each cycle's active phase.
	wantPhase := []string{"work", "work", "drain", "drain", "drain"}
	names := c.Recorder.Phases()
	var gotPhase []string
	for _, e := range c.Recorder.Events() {
		if e.Kind == trace.KindPhase {
			continue
		}
		if int(e.Cycle) == len(gotPhase) {
			gotPhase = append(gotPhase, names[e.Phase])
		} else if name := names[e.Phase]; name != gotPhase[e.Cycle] {
			t.Errorf("cycle %d: event of proc %d in phase %q, want %q", e.Cycle, e.Proc, name, gotPhase[e.Cycle])
		}
	}
	if !reflect.DeepEqual(gotPhase, wantPhase) {
		t.Errorf("per-cycle phases = %q, want %q", gotPhase, wantPhase)
	}
}

// TestPhaseMergeByName: re-entering a phase name folds into the existing
// entry instead of appending a duplicate; first-seen order is kept.
func TestPhaseMergeByName(t *testing.T) {
	prog := func(pr Node) {
		pr.Phase("a")
		pr.Idle()
		pr.Phase("b")
		pr.Idle()
		pr.Idle()
		pr.Phase("a")
		pr.Idle()
	}
	res, err := RunUniform(cfg(3, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	s := &res.Stats
	if len(s.Phases) != 2 || s.Phases[0].Name != "a" || s.Phases[1].Name != "b" {
		t.Fatalf("phases = %+v", s.Phases)
	}
	if s.Phases[0].Cycles != 2 {
		t.Errorf("a cycles = %d, want 2 (merged segments)", s.Phases[0].Cycles)
	}
	if s.Phases[1].Cycles != 2 {
		t.Errorf("b cycles = %d, want 2", s.Phases[1].Cycles)
	}
}

// TestPhaseZeroCycle: a marker issued right before the program returns rides
// on the exit op and still registers, as a zero-cycle entry.
func TestPhaseZeroCycle(t *testing.T) {
	prog := func(pr Node) {
		pr.Phase("work")
		pr.Idle()
		pr.Phase("done")
	}
	res, err := RunUniform(cfg(2, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	done := res.Stats.PhaseByName("done")
	if done == nil {
		t.Fatalf("zero-cycle phase missing: %+v", res.Stats.Phases)
	}
	if done.Cycles != 0 || done.Messages != 0 {
		t.Errorf("done = %+v, want zero cycles and messages", done)
	}
}

// TestPhaseCyclesBeforeFirstMarker: traffic before any marker stays out of
// the phase breakdown but still counts toward the run totals.
func TestPhaseCyclesBeforeFirstMarker(t *testing.T) {
	prog := func(pr Node) {
		pr.Idle()
		pr.Idle()
		pr.Phase("late")
		pr.Idle()
	}
	res, err := RunUniform(cfg(2, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != 3 {
		t.Errorf("cycles = %d, want 3", res.Stats.Cycles)
	}
	if len(res.Stats.Phases) != 1 || res.Stats.Phases[0].Cycles != 1 {
		t.Errorf("phases = %+v, want one 1-cycle entry", res.Stats.Phases)
	}
}

// TestMaxCyclesExact pins the cycle-limit semantics: the run executes exactly
// MaxCycles cycles and fails before delivering the results of the last one,
// so programs observe MaxCycles-1 completed operations and the partial
// Result reports Cycles == MaxCycles.
func TestMaxCyclesExact(t *testing.T) {
	const limit = 10
	c := cfg(2, 1)
	c.MaxCycles = limit
	completed := make([]int, 2)
	prog := func(pr Node) {
		for {
			pr.Idle()
			completed[pr.ID()]++
		}
	}
	res, err := RunUniform(c, prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("expected ErrAborted, got %v", err)
	}
	if res == nil {
		t.Fatal("expected a partial Result on cycle-limit abort")
	}
	if res.Stats.Cycles != limit {
		t.Errorf("Cycles = %d, want exactly %d", res.Stats.Cycles, limit)
	}
	for id, n := range completed {
		if n != limit-1 {
			t.Errorf("proc %d observed %d completed ops, want %d", id, n, limit-1)
		}
	}
}

// Abort-path consistency: the partial Result returned alongside an error must
// reflect only fully resolved cycles — no counter increments from the cycle
// that failed validation.

func TestAbortStatsCollision(t *testing.T) {
	prog := func(pr Node) {
		// Two clean cycles on disjoint channels, then both write channel 0.
		for i := 0; i < 2; i++ {
			pr.Write(pr.ID(), MsgX(0, int64(i)))
		}
		pr.Write(0, MsgX(0, 9))
	}
	res, err := RunUniform(cfg(2, 2), prog)
	var ce *CollisionError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CollisionError, got %v", err)
	}
	if res == nil {
		t.Fatal("expected a partial Result")
	}
	s := &res.Stats
	if s.Cycles != 2 || s.Messages != 4 {
		t.Errorf("stats = %v, want 2 cycles 4 messages (failed cycle excluded)", s)
	}
	if s.PerProc[0] != 2 || s.PerProc[1] != 2 || s.PerChannel[0] != 2 || s.PerChannel[1] != 2 {
		t.Errorf("vectors = %v %v, want [2 2] [2 2]", s.PerProc, s.PerChannel)
	}
}

func TestAbortStatsInvalidChannel(t *testing.T) {
	prog := func(pr Node) {
		for i := 0; i < 3; i++ {
			if pr.ID() == 0 {
				pr.Write(0, MsgX(0, int64(i)))
			} else {
				pr.Read(0)
			}
		}
		if pr.ID() == 0 {
			pr.Write(99, MsgX(0, 0))
		} else {
			pr.Idle()
		}
	}
	res, err := RunUniform(cfg(2, 2), prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("expected abort, got %v", err)
	}
	if res == nil {
		t.Fatal("expected a partial Result")
	}
	if res.Stats.Cycles != 3 || res.Stats.Messages != 3 {
		t.Errorf("stats = %v, want 3 cycles 3 messages", &res.Stats)
	}
}

func TestAbortStatsBudget(t *testing.T) {
	c := cfg(2, 1)
	c.MaxAbs = 100
	prog := func(pr Node) {
		for i := 0; i < 2; i++ {
			if pr.ID() == 0 {
				pr.Write(0, MsgX(0, 50))
			} else {
				pr.Read(0)
			}
		}
		if pr.ID() == 0 {
			pr.Write(0, MsgX(0, 101))
		} else {
			pr.Read(0)
		}
	}
	res, err := RunUniform(c, prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("expected budget abort, got %v", err)
	}
	if res == nil {
		t.Fatal("expected a partial Result")
	}
	if res.Stats.Cycles != 2 || res.Stats.Messages != 2 {
		t.Errorf("stats = %v, want 2 cycles 2 messages", &res.Stats)
	}
	// The over-budget payload never committed, so the watermark must not
	// include it.
	if res.Stats.MaxAbs != 50 {
		t.Errorf("MaxAbs = %d, want 50", res.Stats.MaxAbs)
	}
}

// TestStatsAddPhases: Add merges phase entries by name, summing counters,
// recomputing utilization from the merged totals, and appending unseen names
// in order.
func TestStatsAddPhases(t *testing.T) {
	a := Stats{
		Cycles: 4, Messages: 4,
		Phases: []PhaseStats{
			{Name: "x", Cycles: 2, Messages: 2, PerChannel: []int64{2}, Utilization: 1.0},
			{Name: "y", Cycles: 2, Messages: 2, PerChannel: []int64{2}, Utilization: 1.0},
		},
	}
	b := Stats{
		Cycles: 6, Messages: 3,
		Phases: []PhaseStats{
			{Name: "y", Cycles: 2, Messages: 0, PerChannel: []int64{0}},
			{Name: "z", Cycles: 4, Messages: 3, PerChannel: []int64{3}, Utilization: 0.75},
		},
	}
	a.Add(&b)
	if len(a.Phases) != 3 {
		t.Fatalf("phases = %+v, want x, y, z", a.Phases)
	}
	if a.Phases[0].Name != "x" || a.Phases[1].Name != "y" || a.Phases[2].Name != "z" {
		t.Fatalf("phase order = %+v", a.Phases)
	}
	y := a.Phases[1]
	if y.Cycles != 4 || y.Messages != 2 {
		t.Errorf("merged y = %+v, want 4 cycles 2 messages", y)
	}
	if y.Utilization != 0.5 {
		t.Errorf("merged y utilization = %v, want 0.5", y.Utilization)
	}
	// z was cloned, not aliased: mutating the source must not leak through.
	b.Phases[1].PerChannel[0] = 99
	if a.Phases[2].PerChannel[0] != 3 {
		t.Errorf("z per-channel aliases the source: %v", a.Phases[2].PerChannel)
	}
}

// TestStatsAddUnequalVectors: vectors of different lengths extend rather
// than truncate or panic.
func TestStatsAddUnequalVectors(t *testing.T) {
	a := Stats{PerProc: []int64{1}, PerChannel: []int64{1, 1}}
	b := Stats{PerProc: []int64{1, 2, 3}, PerChannel: []int64{1}}
	a.Add(&b)
	if !reflect.DeepEqual(a.PerProc, []int64{2, 2, 3}) {
		t.Errorf("PerProc = %v", a.PerProc)
	}
	if !reflect.DeepEqual(a.PerChannel, []int64{2, 1}) {
		t.Errorf("PerChannel = %v", a.PerChannel)
	}
}

// TestReportJSONRoundTrip: NewReport snapshots (not aliases) the stats and
// the JSON schema round-trips losslessly.
func TestReportJSONRoundTrip(t *testing.T) {
	s := Stats{
		Cycles: 10, Messages: 12, MaxAbs: 7, MaxAux: 3,
		PerProc:    []int64{5, 7},
		PerChannel: []int64{8, 4},
		Phases: []PhaseStats{
			{Name: "p1", Cycles: 6, Messages: 8, PerChannel: []int64{5, 3}, Utilization: 8.0 / 12.0},
			{Name: "p2", Cycles: 4, Messages: 4, PerChannel: []int64{3, 1}, Utilization: 0.5},
		},
	}
	r := NewReport(Config{P: 2, K: 2}, &s)
	if r.Utilization != 12.0/20.0 {
		t.Errorf("utilization = %v, want 0.6", r.Utilization)
	}
	// Snapshot semantics: mutating the source stats must not change the report.
	s.PerProc[0] = 99
	s.Phases[0].PerChannel[0] = 99
	if r.PerProc[0] != 5 || r.Phases[0].PerChannel[0] != 5 {
		t.Error("Report aliases the source Stats")
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, r) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", &back, r)
	}
}
