package mcb

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"testing"
)

// relayProgram builds a fixed-schedule program set: for `cycles` cycles,
// processor (cycle % p) broadcasts a known payload on channel (cycle % k) and
// everyone else reads that channel. The schedule is data-independent, so it
// terminates under any fault plan; received values land in got[reader].
func relayPrograms(p, k, cycles int, got [][]Message) []func(Node) {
	progs := make([]func(Node), p)
	for i := 0; i < p; i++ {
		id := i
		progs[i] = func(pr Node) {
			for c := 0; c < cycles; c++ {
				ch := c % k
				if c%p == id {
					pr.Write(ch, Msg(7, int64(c), int64(id), int64(c*id)))
					continue
				}
				m, ok := pr.Read(ch)
				if ok && got != nil {
					got[id] = append(got[id], m)
				}
			}
		}
	}
	return progs
}

func TestFaultPlanReplayByteIdentical(t *testing.T) {
	c := cfg(5, 3)
	c.Faults = &FaultPlan{
		Seed:        42,
		DropRate:    0.2,
		CorruptRate: 0.2,
		Outages:     []Outage{{Ch: 1, From: 4, To: 9}},
		Crashes:     []Crash{{Proc: 3, Cycle: 11}},
	}
	var reports [][]byte
	for run := 0; run < 3; run++ {
		res, err := Run(c, relayPrograms(5, 3, 20, nil))
		if err == nil {
			t.Fatalf("run %d: expected the scripted crash to surface as an error", run)
		}
		var ce *CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("run %d: got %v, want CrashError", run, err)
		}
		if res == nil {
			t.Fatalf("run %d: no partial result", run)
		}
		b, jerr := NewReport(c, &res.Stats).JSON()
		if jerr != nil {
			t.Fatal(jerr)
		}
		reports = append(reports, b)
	}
	for i := 1; i < len(reports); i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Fatalf("replaying the same (seed, FaultPlan) produced a different report:\n--- run 0:\n%s\n--- run %d:\n%s", reports[0], i, reports[i])
		}
	}
}

func TestFaultDropAllReadsSilence(t *testing.T) {
	got := make([][]Message, 2)
	c := cfg(2, 1)
	c.Faults = &FaultPlan{Seed: 1, DropRate: 1}
	res, err := Run(c, relayPrograms(2, 1, 10, got))
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0])+len(got[1]) != 0 {
		t.Fatalf("DropRate=1 still delivered %d+%d messages", len(got[0]), len(got[1]))
	}
	// Every cycle had one writer and one reader: 10 suppressed deliveries.
	if res.Stats.Faults.Drops != 10 {
		t.Fatalf("Drops = %d, want 10", res.Stats.Faults.Drops)
	}
	if res.Stats.Messages != 10 {
		t.Fatalf("Messages = %d, want 10 (drops suppress delivery, not the write)", res.Stats.Messages)
	}
}

func TestFaultChecksumDetectsCorruption(t *testing.T) {
	got := make([][]Message, 2)
	c := cfg(2, 1)
	c.Faults = &FaultPlan{Seed: 9, CorruptRate: 1, Checksum: true}
	res, err := Run(c, relayPrograms(2, 1, 12, got))
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0])+len(got[1]) != 0 {
		t.Fatalf("checksum-guarded corrupted deliveries must read as silence, got %d deliveries", len(got[0])+len(got[1]))
	}
	if res.Stats.Faults.Detected != 12 || res.Stats.Faults.Corruptions != 0 {
		t.Fatalf("Detected=%d Corruptions=%d, want 12 and 0", res.Stats.Faults.Detected, res.Stats.Faults.Corruptions)
	}
}

func TestFaultCorruptionFlipsOneBitWithoutChecksum(t *testing.T) {
	got := make([][]Message, 2)
	c := cfg(2, 1)
	c.Faults = &FaultPlan{Seed: 9, CorruptRate: 1, Checksum: false}
	res, err := Run(c, relayPrograms(2, 1, 12, got))
	if err != nil {
		t.Fatal(err)
	}
	delivered := len(got[0]) + len(got[1])
	if delivered != 12 {
		t.Fatalf("without checksum the garbled payloads must be delivered, got %d of 12", delivered)
	}
	if res.Stats.Faults.Corruptions != 12 || res.Stats.Faults.Detected != 0 {
		t.Fatalf("Corruptions=%d Detected=%d, want 12 and 0", res.Stats.Faults.Corruptions, res.Stats.Faults.Detected)
	}
	// The single-bit-flip property itself is covered by
	// TestFaultCorruptAtSingleBit; here it suffices that at least one
	// delivered payload differs from what the relay schedule sent.
	garbled := false
	for id, ms := range got {
		for _, m := range ms {
			cy := m.X // X carries the cycle unless X itself was flipped
			sent := Msg(7, cy, int64(1-id), cy*int64(1-id))
			if m != sent {
				garbled = true
			}
		}
	}
	if !garbled {
		t.Fatal("no delivered payload was garbled although CorruptRate=1")
	}
}

func TestFaultCorruptAtSingleBit(t *testing.T) {
	p := &FaultPlan{Seed: 5, CorruptRate: 1}
	orig := Msg(3, 100, -7, 42)
	for cycle := int64(0); cycle < 64; cycle++ {
		m, garbled := p.corruptAt(cycle, 1, 0, orig)
		if !garbled {
			t.Fatalf("cycle %d: CorruptRate=1 did not garble", cycle)
		}
		diff := bits.OnesCount64(uint64(m.X^orig.X)) +
			bits.OnesCount64(uint64(m.Y^orig.Y)) +
			bits.OnesCount64(uint64(m.Z^orig.Z))
		if diff != 1 {
			t.Fatalf("cycle %d: %d payload bits flipped, want exactly 1", cycle, diff)
		}
		if m.Tag != orig.Tag {
			t.Fatalf("cycle %d: tag corrupted", cycle)
		}
		if msgSum(m) == msgSum(orig) {
			t.Fatalf("cycle %d: checksum failed to detect a single-bit flip", cycle)
		}
	}
}

func TestFaultOutageWindow(t *testing.T) {
	got := make([][]Message, 2)
	c := cfg(2, 1)
	c.Faults = &FaultPlan{Seed: 1, Outages: []Outage{{Ch: 0, From: 3, To: 6}}}
	res, err := Run(c, relayPrograms(2, 1, 10, got))
	if err != nil {
		t.Fatal(err)
	}
	delivered := len(got[0]) + len(got[1])
	if delivered != 7 {
		t.Fatalf("delivered %d messages, want 7 (cycles 3,4,5 dead)", delivered)
	}
	for _, ms := range got {
		for _, m := range ms {
			if m.X >= 3 && m.X < 6 {
				t.Fatalf("message from dead cycle %d was delivered", m.X)
			}
		}
	}
	if res.Stats.Faults.OutageLosses != 3 {
		t.Fatalf("OutageLosses = %d, want 3", res.Stats.Faults.OutageLosses)
	}
	if got := res.Stats.Faults.OutagePerChannel; len(got) != 1 || got[0] != 3 {
		t.Fatalf("OutagePerChannel = %v, want [3]", got)
	}
}

func TestFaultCrashStop(t *testing.T) {
	c := cfg(3, 2)
	c.Faults = &FaultPlan{Seed: 1, Crashes: []Crash{{Proc: 1, Cycle: 4}}}
	res, err := Run(c, relayPrograms(3, 2, 12, nil))
	if err == nil {
		t.Fatal("a crashed processor must surface as an error even when the survivors complete")
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("CrashError must wrap ErrAborted, got %v", err)
	}
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("got %T (%v), want *CrashError", err, err)
	}
	if len(ce.Procs) != 1 || ce.Procs[0] != 1 || ce.Cycle != 4 {
		t.Fatalf("CrashError = %+v, want Procs=[1] Cycle=4", ce)
	}
	if res == nil {
		t.Fatal("crash-stop must still return the partial result (the survivors ran to completion)")
	}
	want := []CrashEvent{{Proc: 1, Cycle: 4}}
	if len(res.Stats.Faults.Crashes) != 1 || res.Stats.Faults.Crashes[0] != want[0] {
		t.Fatalf("Stats.Faults.Crashes = %v, want %v", res.Stats.Faults.Crashes, want)
	}
	// The survivors ran all 12 cycles; the crashed processor wrote at most
	// during its 4 completed cycles.
	if res.Stats.Cycles != 12 {
		t.Fatalf("survivors completed %d cycles, want 12", res.Stats.Cycles)
	}
}

func TestFaultCrashAtCycleZero(t *testing.T) {
	c := cfg(2, 1)
	c.Faults = &FaultPlan{Seed: 1, Crashes: []Crash{{Proc: 0, Cycle: 0}}}
	_, err := Run(c, relayPrograms(2, 1, 5, nil))
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want CrashError", err)
	}
	if ce.Cycle != 0 {
		t.Fatalf("crash cycle = %d, want 0 (before the first operation)", ce.Cycle)
	}
}

func TestFaultPlanForAttempt(t *testing.T) {
	p := &FaultPlan{
		Seed:     7,
		DropRate: 0.1,
		Outages:  []Outage{{Ch: 0, From: 1, To: 2}},
		Crashes:  []Crash{{Proc: 2, Cycle: 3}},
	}
	if got := p.ForAttempt(0); got != p {
		t.Fatal("attempt 0 must run the plan itself")
	}
	a1 := p.ForAttempt(1)
	if a1.Seed == p.Seed {
		t.Fatal("a retry attempt must reseed the stochastic faults")
	}
	if a1.DropRate != p.DropRate || len(a1.Outages) != 1 || len(a1.Crashes) != 1 {
		t.Fatalf("ForAttempt must keep rates and scripted faults: %+v", a1)
	}
	if a2 := p.ForAttempt(2); a2.Seed == a1.Seed {
		t.Fatal("distinct attempts must use distinct seeds")
	}
	if b := p.ForAttempt(1); b.Seed != a1.Seed {
		t.Fatal("ForAttempt must be deterministic")
	}
	var nilPlan *FaultPlan
	if nilPlan.ForAttempt(3) != nil {
		t.Fatal("a nil plan stays nil")
	}
}

func TestFaultPlanWithoutCrashes(t *testing.T) {
	p := &FaultPlan{Crashes: []Crash{{Proc: 1, Cycle: 2}, {Proc: 3, Cycle: 4}, {Proc: 1, Cycle: 9}}}
	q := p.WithoutCrashes([]int{1})
	if len(q.Crashes) != 1 || q.Crashes[0].Proc != 3 {
		t.Fatalf("WithoutCrashes([1]) kept %v, want only processor 3", q.Crashes)
	}
	if len(p.Crashes) != 3 {
		t.Fatal("WithoutCrashes must not mutate the original plan")
	}
}

func TestFaultPlanWithoutOutages(t *testing.T) {
	p := &FaultPlan{Outages: []Outage{
		{Ch: 0, From: 1, To: 5},
		{Ch: 2, From: 3, To: 8},
		{Ch: 0, From: 10, To: 12},
	}}
	q := p.WithoutOutages([]int{0})
	if len(q.Outages) != 1 || q.Outages[0].Ch != 2 {
		t.Fatalf("WithoutOutages([0]) kept %v, want only channel 2", q.Outages)
	}
	if len(p.Outages) != 3 {
		t.Fatal("WithoutOutages must not mutate the original plan")
	}
	var nilPlan *FaultPlan
	if nilPlan.WithoutOutages([]int{0}) != nil {
		t.Fatal("a nil plan stays nil")
	}
}

func TestFaultPlanShift(t *testing.T) {
	p := &FaultPlan{
		Seed:    7,
		Outages: []Outage{{Ch: 0, From: 2, To: 5}, {Ch: 1, From: 10, To: 20}},
		Crashes: []Crash{{Proc: 0, Cycle: 3}, {Proc: 1, Cycle: 15}},
	}
	q := p.Shift(8)
	// The [2,5) window has fully expired; [10,20) clips to [2,12).
	if len(q.Outages) != 1 || q.Outages[0] != (Outage{Ch: 1, From: 2, To: 12}) {
		t.Fatalf("Shift(8) outages = %v, want [{1 2 12}]", q.Outages)
	}
	// An already-due crash pins to cycle 0 (the processor stays dead); a
	// future one moves earlier.
	if len(q.Crashes) != 2 || q.Crashes[0] != (Crash{Proc: 0, Cycle: 0}) || q.Crashes[1] != (Crash{Proc: 1, Cycle: 7}) {
		t.Fatalf("Shift(8) crashes = %v", q.Crashes)
	}
	if q.Seed == p.Seed {
		t.Fatal("Shift must remix the stochastic seed")
	}
	if got := p.Shift(0); got != p {
		t.Fatal("Shift(0) must return the plan unchanged")
	}
	if len(p.Outages) != 2 || p.Outages[0].From != 2 {
		t.Fatal("Shift must not mutate the original plan")
	}
}

func TestOutageSuspects(t *testing.T) {
	plan := &FaultPlan{Outages: []Outage{
		{Ch: 0, From: 0, To: 4},       // closed before the failure
		{Ch: 1, From: 0, To: 1 << 40}, // effectively permanent
		{Ch: 2, From: 50, To: 200},    // open at the failure
	}}
	stats := &FaultStats{OutagePerChannel: []int64{5, 9, 2, 0}}
	got := OutageSuspects(plan, stats, 100)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("OutageSuspects = %v, want [1 2]", got)
	}
	// Channel 3 never lost a message, channel 0's window closed: neither is
	// a suspect even though both appear somewhere.
	if OutageSuspects(plan, &FaultStats{}, 100) != nil {
		t.Fatal("no losses => no suspects")
	}
	if OutageSuspects(nil, stats, 100) != nil || OutageSuspects(plan, nil, 100) != nil {
		t.Fatal("nil plan or stats => no suspects")
	}
}

func TestFaultRollDeterministicAndUniform(t *testing.T) {
	p := &FaultPlan{Seed: 123}
	sum := 0.0
	const n = 4096
	for i := 0; i < n; i++ {
		v := p.roll(saltDrop, int64(i), i%7, i%3)
		if v < 0 || v >= 1 {
			t.Fatalf("roll out of [0,1): %g", v)
		}
		if v2 := p.roll(saltDrop, int64(i), i%7, i%3); v2 != v {
			t.Fatal("roll is not deterministic")
		}
		sum += v
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Fatalf("roll mean %g over %d samples, want ~0.5", mean, n)
	}
}

func TestRetryableClassification(t *testing.T) {
	for _, err := range []error{
		&AbortError{Proc: 1, VProc: -1, Msg: "x"},
		&CrashError{Procs: []int{0}},
		&StallError{},
		&BudgetError{Budget: "cycles"},
		&CorruptionError{Op: "sort"},
		&CollisionError{},
	} {
		if !Retryable(err) {
			t.Errorf("%T must be retryable", err)
		}
	}
	if Retryable(nil) || Retryable(errors.New("config")) {
		t.Error("nil and plain errors must not be retryable")
	}
}

// TestParseOutage pins the ch:from[:to] grammar of the -outage flag: an
// omitted end means the channel never heals, and a malformed spec is an
// error naming it.
func TestParseOutage(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want Outage
	}{
		{"1:40", Outage{Ch: 1, From: 40, To: 1 << 50}},
		{"0:0:7", Outage{Ch: 0, From: 0, To: 7}},
	} {
		got, err := ParseOutage(tc.spec, 4)
		if err != nil || got != tc.want {
			t.Errorf("ParseOutage(%q) = %+v, %v; want %+v", tc.spec, got, err, tc.want)
		}
	}
	for _, bad := range []string{
		"",        // missing fields
		"1",       // missing from
		"1:2:3:4", // extra field
		"1:x",     // not a number
		"-1:40",   // negative channel
		"1:-40",   // negative cycle
		"4:40",    // channel >= k
		"1:40:40", // empty window
		"1:40:10", // end before start
	} {
		if _, err := ParseOutage(bad, 4); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("ParseOutage(%q): err = %v, want an error naming the spec", bad, err)
		}
	}
}
