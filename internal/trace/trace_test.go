package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unsafe"
)

// syntheticTrace builds a recorder with one event of every kind across two
// phases, plus enough traffic to make the summaries non-trivial.
func syntheticTrace() *Recorder {
	r := New(3, 2, 64)
	load := r.PhaseID("load")
	sortPh := r.PhaseID("sort")
	r.Record(Event{Cycle: 0, Proc: 0, Ch: -1, Phase: load, Kind: KindPhase})
	r.Record(Event{Cycle: 0, Proc: 0, Ch: 0, Phase: load, Arg: 41, Kind: KindWrite})
	r.Record(Event{Cycle: 0, Proc: 1, Ch: 0, Phase: load, Arg: 41, Kind: KindRead})
	r.Record(Event{Cycle: 0, Proc: 2, Ch: 1, Phase: load, Kind: KindSilence})
	r.Record(Event{Cycle: 1, Proc: 0, Ch: -1, Phase: load, Kind: KindIdle})
	r.Record(Event{Cycle: 1, Proc: 1, Ch: 1, Phase: load, Arg: -7, Kind: KindWrite})
	r.Record(Event{Cycle: 1, Proc: 2, Ch: 1, Phase: load, Arg: FaultDrop, Kind: KindFault})
	r.Record(Event{Cycle: 1, Proc: 2, Ch: 1, Phase: load, Kind: KindSilence})
	r.Record(Event{Cycle: 2, Proc: 1, Ch: -1, Phase: sortPh, Kind: KindPhase})
	r.Record(Event{Cycle: 2, Proc: 1, Ch: 0, Phase: sortPh, Arg: 9, Kind: KindWrite})
	r.Record(Event{Cycle: 2, Proc: 2, Ch: 0, Phase: sortPh, Arg: 1, Kind: KindCollision})
	r.Record(Event{Cycle: 3, Proc: 2, Ch: -1, Phase: -1, Arg: FaultCrash, Kind: KindFault})
	return r
}

// TestEventSize pins the fixed binary event size: the whole point of the
// ring design is that events are small value types with no pointers.
func TestEventSize(t *testing.T) {
	if s := unsafe.Sizeof(Event{}); s != 32 {
		t.Fatalf("Event is %d bytes, want 32", s)
	}
}

// TestJSONLRoundTrip is the round-trip golden test: record → export JSONL →
// re-parse → re-export must be byte-identical, and the parsed events must
// equal the originals.
func TestJSONLRoundTrip(t *testing.T) {
	r := syntheticTrace()
	var first bytes.Buffer
	if err := r.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	events, phases, err := ParseJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Events(); !reflect.DeepEqual(events, want) {
		t.Fatalf("parsed events differ:\n got %+v\nwant %+v", events, want)
	}
	var second bytes.Buffer
	if err := WriteJSONL(&second, events, phases); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-export not byte-identical:\n--- first ---\n%s--- second ---\n%s", &first, &second)
	}
}

// TestRingWrap: a full ring overwrites its oldest events, keeps the newest
// in order, and accounts for the loss.
func TestRingWrap(t *testing.T) {
	r := New(2, 1, 0) // capacity clamps to the 64 minimum
	const total = 150
	for i := 0; i < total; i++ {
		r.Record(Event{Cycle: int64(i), Proc: int32(i % 2), Ch: 0, Phase: -1, Arg: int64(i), Kind: KindWrite})
	}
	if got := r.Total(); got != total {
		t.Fatalf("Total = %d, want %d", got, total)
	}
	// 75 events per proc into 64-slot rings: 11 dropped each.
	if got, want := r.Dropped(), int64(2*(75-64)); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	evs := r.Events()
	if len(evs) != 2*64 {
		t.Fatalf("retained %d events, want %d", len(evs), 2*64)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("events out of order at %d: %d after %d", i, evs[i].Cycle, evs[i-1].Cycle)
		}
	}
	// The oldest retained event per proc is total-1 - 2*63 or so; just check
	// the newest survived.
	last := evs[len(evs)-1]
	if last.Arg != total-1 {
		t.Fatalf("newest event lost: got arg %d, want %d", last.Arg, total-1)
	}
	r.Reset()
	if r.Total() != 0 || len(r.Events()) != 0 || len(r.Phases()) != 0 {
		t.Fatal("Reset did not clear the recorder")
	}
}

// TestPerfettoExport: the export must be valid JSON in the trace-event
// schema with per-channel and per-processor thread metadata and phase spans.
func TestPerfettoExport(t *testing.T) {
	r := syntheticTrace()
	var buf bytes.Buffer
	if err := r.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	var chThreads, procThreads, phaseSpans, writeSpans int
	for _, e := range f.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name" && e.Pid == pidChans:
			chThreads++
		case e.Ph == "M" && e.Name == "thread_name" && e.Pid == pidProcs:
			procThreads++
		case e.Ph == "X" && e.Pid == pidPhases:
			phaseSpans++
			if e.Dur <= 0 {
				t.Fatalf("phase span %q has non-positive duration %d", e.Name, e.Dur)
			}
		case e.Ph == "X" && e.Pid == pidChans:
			writeSpans++
		}
	}
	if chThreads != 2 || procThreads != 3 {
		t.Fatalf("thread metadata: %d channel / %d processor threads, want 2 / 3", chThreads, procThreads)
	}
	if phaseSpans < 2 {
		t.Fatalf("phase spans = %d, want >= 2 (load, sort)", phaseSpans)
	}
	if writeSpans != 3 {
		t.Fatalf("channel write spans = %d, want 3", writeSpans)
	}
}

// TestSummarize checks the per-phase rollup counters and utilization.
func TestSummarize(t *testing.T) {
	r := syntheticTrace()
	sums := r.Summaries()
	if len(sums) != 3 { // load, sort, "" (the phase-less crash event)
		t.Fatalf("got %d phase summaries (%+v), want 3", len(sums), sums)
	}
	load := sums[0]
	if load.Phase != "load" || load.Cycles != 2 || load.Writes != 2 ||
		load.Silences != 2 || load.Reads != 1 || load.Idles != 1 || load.Faults != 1 {
		t.Fatalf("load summary wrong: %+v", load)
	}
	if want := 2.0 / (2.0 * 2.0); load.Utilization != want {
		t.Fatalf("load utilization = %v, want %v", load.Utilization, want)
	}
	if load.PerChannel[0] != 1 || load.PerChannel[1] != 1 {
		t.Fatalf("load per-channel = %v, want [1 1]", load.PerChannel)
	}
	sortS := sums[1]
	if sortS.Phase != "sort" || sortS.Writes != 1 || sortS.Collisions != 1 {
		t.Fatalf("sort summary wrong: %+v", sortS)
	}
}

// TestSummariesPerRun: two runs on different channel counts that share a
// phase name summarize as one row each, every row on its own run's channels.
func TestSummariesPerRun(t *testing.T) {
	r := New(2, 4, 64)
	work := r.PhaseID("work")
	r.StartRun(4)
	r.Record(Event{Cycle: 0, Proc: 0, Ch: 3, Phase: work, Arg: 1, Kind: KindWrite})
	r.Record(Event{Cycle: 1, Proc: 1, Ch: 2, Phase: work, Arg: 2, Kind: KindWrite})
	r.StartRun(3) // a degraded retry: channels renumbered into [0, 3)
	r.Record(Event{Cycle: 0, Proc: 0, Ch: 2, Phase: work, Arg: 3, Kind: KindWrite})
	r.Record(Event{Cycle: 0, Proc: 1, Ch: 2, Phase: work, Arg: 3, Kind: KindRead})

	want := []PhaseSummary{
		{Run: 0, Phase: "work", FirstCycle: 0, LastCycle: 1, Cycles: 2, Writes: 2,
			PerChannel: []int64{0, 0, 1, 1}, Utilization: 2.0 / (2 * 4)},
		{Run: 1, Phase: "work", FirstCycle: 2, LastCycle: 2, Cycles: 1, Writes: 1, Reads: 1,
			PerChannel: []int64{0, 0, 1}, Utilization: 1.0 / 3},
	}
	if got := r.Summaries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("per-run summaries:\ngot  %+v\nwant %+v", got, want)
	}
}
