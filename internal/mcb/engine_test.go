package mcb

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mcbnet/internal/trace"
)

func cfg(p, k int) Config {
	return Config{P: p, K: k, StallTimeout: 5 * time.Second}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		p, k int
		ok   bool
	}{
		{1, 1, true}, {4, 4, true}, {8, 2, true},
		{0, 1, false}, {2, 0, false}, {2, 3, false}, {-1, -1, false},
	}
	for _, c := range cases {
		_, err := Run(Config{P: c.p, K: c.k}, make([]func(Node), max(c.p, 0)))
		if c.ok && err != nil && c.p > 0 {
			// nil programs will panic at run; only check validation outcomes
			// for invalid configs here.
			continue
		}
		if !c.ok && err == nil {
			t.Errorf("P=%d K=%d: expected config error", c.p, c.k)
		}
	}
}

func TestBroadcastOneToAll(t *testing.T) {
	const p = 8
	got := make([]int64, p)
	prog := func(pr Node) {
		if pr.ID() == 3 {
			m, ok := pr.WriteRead(0, MsgX(1, 42), 0)
			if !ok || m.X != 42 {
				pr.Abortf("writer did not read back own message: %v %v", m, ok)
			}
			got[pr.ID()] = m.X
			return
		}
		m, ok := pr.Read(0)
		if !ok {
			pr.Abortf("expected message")
		}
		got[pr.ID()] = m.X
	}
	res, err := RunUniform(cfg(p, 2), prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 42 {
			t.Errorf("proc %d got %d, want 42", i, v)
		}
	}
	if res.Stats.Cycles != 1 {
		t.Errorf("cycles = %d, want 1", res.Stats.Cycles)
	}
	if res.Stats.Messages != 1 {
		t.Errorf("messages = %d, want 1", res.Stats.Messages)
	}
}

func TestSilenceDetection(t *testing.T) {
	prog := func(pr Node) {
		if _, ok := pr.Read(0); ok {
			pr.Abortf("expected silence")
		}
	}
	res, err := RunUniform(cfg(4, 2), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages != 0 {
		t.Errorf("messages = %d, want 0", res.Stats.Messages)
	}
	if res.Stats.Cycles != 1 {
		t.Errorf("cycles = %d, want 1", res.Stats.Cycles)
	}
}

func TestCollisionFails(t *testing.T) {
	prog := func(pr Node) {
		pr.Write(1, MsgX(0, int64(pr.ID())))
	}
	_, err := RunUniform(cfg(4, 2), prog)
	var ce *CollisionError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CollisionError, got %v", err)
	}
	if ce.Ch != 1 {
		t.Errorf("collision channel = %d, want 1", ce.Ch)
	}
}

func TestParallelChannels(t *testing.T) {
	// k disjoint pairs talk simultaneously in one cycle.
	const k = 4
	const p = 2 * k
	got := make([]int64, p)
	prog := func(pr Node) {
		id := pr.ID()
		if id < k {
			pr.Write(id, MsgX(0, int64(100+id)))
			return
		}
		m, ok := pr.Read(id - k)
		if !ok {
			pr.Abortf("silence on %d", id-k)
		}
		got[id] = m.X
	}
	res, err := RunUniform(cfg(p, k), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != 1 || res.Stats.Messages != int64(k) {
		t.Errorf("cycles=%d messages=%d, want 1, %d", res.Stats.Cycles, res.Stats.Messages, k)
	}
	for i := k; i < p; i++ {
		if got[i] != int64(100+i-k) {
			t.Errorf("proc %d got %d", i, got[i])
		}
	}
}

func TestUnevenTermination(t *testing.T) {
	// Processors exit at different times; survivors keep cycling. The global
	// cycle count equals the longest-running processor's cycle count.
	const p = 6
	prog := func(pr Node) {
		for i := 0; i <= pr.ID(); i++ {
			pr.Idle()
		}
	}
	res, err := RunUniform(cfg(p, 2), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != p {
		t.Errorf("cycles = %d, want %d", res.Stats.Cycles, p)
	}
}

func TestLateJoinerSeesOnlySameCycleMessage(t *testing.T) {
	// Channels are memoryless: a message written in cycle 0 is not visible
	// in cycle 1.
	prog := func(pr Node) {
		if pr.ID() == 0 {
			pr.Write(0, MsgX(0, 7))
			pr.Idle()
			return
		}
		pr.Idle()
		if _, ok := pr.Read(0); ok {
			pr.Abortf("channel should be memoryless")
		}
	}
	if _, err := RunUniform(cfg(2, 1), prog); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	// Same run twice: identical stats and identical recorded traffic.
	run := func() (Stats, []byte) {
		c := cfg(16, 4)
		c.Recorder = trace.New(16, 4, 64)
		prog := func(pr Node) {
			id := pr.ID()
			for i := 0; i < 10; i++ {
				if id%4 == i%4 {
					// Four writers per cycle, each on its own channel.
					ch := id / 4
					pr.WriteRead(ch, Msg(1, int64(id), int64(i), 0), (ch+1)%pr.K())
				} else {
					pr.Read(id / 4)
				}
			}
		}
		res, err := RunUniform(c, prog)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Recorder.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return res.Stats, buf.Bytes()
	}
	a, aTrace := run()
	b, bTrace := run()
	if a.Cycles != b.Cycles || a.Messages != b.Messages {
		t.Fatalf("nondeterministic stats: %v vs %v", a, b)
	}
	if !bytes.Equal(aTrace, bTrace) {
		t.Fatalf("recorded traces differ:\n%s\n--- vs ---\n%s", aTrace, bTrace)
	}
}

func TestMaxCycles(t *testing.T) {
	c := cfg(2, 1)
	c.MaxCycles = 10
	prog := func(pr Node) {
		for {
			pr.Idle()
		}
	}
	_, err := RunUniform(c, prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("expected ErrAborted, got %v", err)
	}
}

func TestStallDetection(t *testing.T) {
	c := cfg(2, 1)
	c.StallTimeout = 100 * time.Millisecond
	prog := func(pr Node) {
		if pr.ID() == 0 {
			// Breaks lock-step: blocks forever without issuing a cycle op.
			select {}
		}
		pr.Idle()
	}
	_, err := RunUniform(c, prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("expected ErrAborted, got %v", err)
	}
}

func TestProgramPanicReported(t *testing.T) {
	prog := func(pr Node) {
		pr.Idle()
		if pr.ID() == 1 {
			panic("algorithm bug")
		}
		pr.Idle()
		pr.Idle()
	}
	_, err := RunUniform(cfg(3, 1), prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("expected ErrAborted, got %v", err)
	}
}

func TestAbortf(t *testing.T) {
	prog := func(pr Node) {
		pr.Idle()
		if pr.ID() == 2 {
			pr.Abortf("invariant violated: %d", 42)
		}
		for {
			pr.Idle()
		}
	}
	_, err := RunUniform(cfg(4, 2), prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("expected ErrAborted, got %v", err)
	}
}

func TestInvalidChannelAborts(t *testing.T) {
	for _, ch := range []int{-1, 99} {
		prog := func(pr Node) { pr.Write(ch, MsgX(0, 0)) }
		if _, err := RunUniform(cfg(2, 2), prog); !errors.Is(err, ErrAborted) {
			t.Errorf("channel %d: expected abort, got %v", ch, err)
		}
		prog = func(pr Node) { pr.Read(ch) }
		if _, err := RunUniform(cfg(2, 2), prog); !errors.Is(err, ErrAborted) {
			t.Errorf("read channel %d: expected abort, got %v", ch, err)
		}
	}
}

func TestPerProcAndPerChannelCounts(t *testing.T) {
	const p = 4
	// Processor i writes i messages, each on its own channel (k = p), so no
	// two processors ever share a channel.
	prog := func(pr Node) {
		for i := 0; i < pr.ID(); i++ {
			pr.Write(pr.ID(), MsgX(0, int64(i)))
		}
	}
	res, err := RunUniform(cfg(p, p), prog)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 2, 3}
	for i, w := range want {
		if res.Stats.PerProc[i] != w {
			t.Errorf("PerProc[%d] = %d, want %d", i, res.Stats.PerProc[i], w)
		}
		if res.Stats.PerChannel[i] != w {
			t.Errorf("PerChannel[%d] = %d, want %d", i, res.Stats.PerChannel[i], w)
		}
	}
	if res.Stats.Messages != 6 {
		t.Errorf("messages = %d, want 6", res.Stats.Messages)
	}
}

func TestMaxAbsTracked(t *testing.T) {
	prog := func(pr Node) {
		if pr.ID() == 0 {
			pr.Write(0, Msg(0, -1234567, 3, 99))
		} else {
			pr.Read(0)
		}
	}
	res, err := RunUniform(cfg(2, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxAbs != 1234567 {
		t.Errorf("MaxAbs = %d, want 1234567", res.Stats.MaxAbs)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Cycles: 3, Messages: 5, MaxAbs: 10, PerProc: []int64{1, 2}, PerChannel: []int64{5}}
	b := Stats{Cycles: 7, Messages: 1, MaxAbs: 4, MaxAux: 9, PerProc: []int64{0, 1, 1}, PerChannel: []int64{0, 1}}
	a.Add(&b)
	if a.Cycles != 10 || a.Messages != 6 || a.MaxAbs != 10 || a.MaxAux != 9 {
		t.Errorf("bad sum: %+v", a)
	}
	if len(a.PerProc) != 3 || a.PerProc[0] != 1 || a.PerProc[1] != 3 || a.PerProc[2] != 1 {
		t.Errorf("PerProc = %v", a.PerProc)
	}
	if len(a.PerChannel) != 2 || a.PerChannel[0] != 5 || a.PerChannel[1] != 1 {
		t.Errorf("PerChannel = %v", a.PerChannel)
	}
}

func TestAccountAux(t *testing.T) {
	prog := func(pr Node) {
		pr.AccountAux(int64(10 * (pr.ID() + 1)))
		pr.Idle()
		pr.AccountAux(-5)
		pr.Idle()
	}
	res, err := RunUniform(cfg(3, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxAux != 30 {
		t.Errorf("MaxAux = %d, want 30", res.Stats.MaxAux)
	}
}

func TestRunEachDifferentPrograms(t *testing.T) {
	sum := make([]int64, 2)
	progs := []func(Node){
		func(pr Node) { pr.Write(0, MsgX(0, 5)) },
		func(pr Node) {
			m, ok := pr.Read(0)
			if ok {
				sum[1] = m.X
			}
		},
	}
	if _, err := Run(cfg(2, 1), progs); err != nil {
		t.Fatal(err)
	}
	if sum[1] != 5 {
		t.Errorf("got %d, want 5", sum[1])
	}
}

func TestManyCyclesThroughput(t *testing.T) {
	// Sanity/perf smoke: 2000 cycles on 32 procs completes quickly.
	const p, cycles = 32, 2000
	prog := func(pr Node) {
		for i := 0; i < cycles; i++ {
			if i%p == pr.ID() {
				pr.Write(0, MsgX(0, int64(i)))
			} else {
				pr.Read(0)
			}
		}
	}
	res, err := RunUniform(cfg(p, 4), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != cycles || res.Stats.Messages != cycles {
		t.Errorf("cycles=%d messages=%d", res.Stats.Cycles, res.Stats.Messages)
	}
}

func TestMessageMaxAbs(t *testing.T) {
	m := Message{X: -5, Y: 3, Z: -9}
	if got := m.maxAbs(); got != 9 {
		t.Errorf("maxAbs = %d, want 9", got)
	}
	m = Message{X: -1 << 63}
	if got := m.maxAbs(); got != 1<<63-1 {
		t.Errorf("maxAbs(MinInt64) = %d", got)
	}
}

func TestMessageSizeBudgetEnforced(t *testing.T) {
	c := cfg(2, 1)
	c.MaxAbs = 100
	prog := func(pr Node) {
		if pr.ID() == 0 {
			pr.Write(0, MsgX(0, 101))
		} else {
			pr.Read(0)
		}
	}
	if _, err := RunUniform(c, prog); !errors.Is(err, ErrAborted) {
		t.Fatalf("expected budget abort, got %v", err)
	}
	// Within budget: fine.
	prog = func(pr Node) {
		if pr.ID() == 0 {
			pr.Write(0, MsgX(0, 100))
		} else {
			pr.Read(0)
		}
	}
	if _, err := RunUniform(c, prog); err != nil {
		t.Fatalf("within-budget run failed: %v", err)
	}
}
