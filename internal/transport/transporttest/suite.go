package transporttest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mcbnet/internal/mcb"
	"mcbnet/internal/transport"
)

// Factory builds the transport under test for one MCB(p, k) run. The
// returned transport must collectively own every processor in [0, p) — a
// single transport.Local{} for the in-process implementation, a Group of
// peer clients (plus whatever server machinery the factory spins up and
// tears down via t.Cleanup) for a distributed one.
type Factory func(t *testing.T, p, k int) transport.Transport

// RunSuite runs the conformance suite against the factory's transports.
func RunSuite(t *testing.T, f Factory) {
	t.Run("Determinism", func(t *testing.T) { testDeterminism(t, f, nil) })
	t.Run("FaultedDeterminism", func(t *testing.T) {
		testDeterminism(t, f, &mcb.FaultPlan{
			Seed: 42, DropRate: 0.08, CorruptRate: 0.04, Checksum: true,
			Outages: []mcb.Outage{{Ch: 1, From: 10, To: 30}},
		})
	})
	t.Run("Exchange", func(t *testing.T) { testExchange(t, f) })
	t.Run("AbortPropagation", func(t *testing.T) { testAbort(t, f) })
	t.Run("Crash", func(t *testing.T) { testCrash(t, f) })
	t.Run("Budget", func(t *testing.T) { testBudget(t, f) })
	t.Run("StallWatchdog", func(t *testing.T) { testStall(t, f) })
	t.Run("ContextCancel", func(t *testing.T) { testCancel(t, f) })
}

// patternPrograms is the deterministic lock-step reference workload: every
// processor spends exactly one cycle per round (writers broadcast, the rest
// read or idle on a seeded schedule), with aligned idle stretches, phase
// markers and aux accounting mixed in. Collision-free by construction:
// round r's writer on channel c is processor (r+c) mod p, distinct across
// c < k <= p. The programs ignore read payloads, so they run identically
// under message-loss fault plans.
func patternPrograms(p, k, rounds int) []func(mcb.Node) {
	progs := make([]func(mcb.Node), p)
	for i := 0; i < p; i++ {
		id := i
		progs[i] = func(n mcb.Node) {
			n.Phase("warmup")
			n.AccountAux(int64(4 * (id + 1)))
			n.IdleN(3)
			for r := 0; r < rounds; r++ {
				if r%8 == 0 {
					n.Phase(fmt.Sprintf("round:%02d", r/8))
				}
				if r > 0 && r%10 == 0 {
					n.IdleN(2)
				}
				c := ((id-r)%p + p) % p
				switch {
				case c < k:
					// Writer on channel c this round; read a neighbor.
					n.WriteRead(c, mcb.Msg(1, int64(r), int64(c), int64(id)), (c+1)%k)
				case (id+r)%5 == 0:
					n.Idle()
				default:
					n.Read((id + r) % k)
				}
			}
			n.Phase("drain")
			n.AccountAux(-int64(2 * (id + 1)))
			n.IdleN(1 + id%2)
		}
	}
	return progs
}

func reportJSON(t *testing.T, cfg mcb.Config, res *mcb.Result) []byte {
	t.Helper()
	if res == nil {
		t.Fatal("nil result")
	}
	b, err := json.Marshal(mcb.NewReport(cfg, &res.Stats))
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

// testDeterminism requires the transport's run to produce a Report
// byte-identical to the in-process engine's for the same (config, programs)
// — the core guarantee that moving a run onto a distributed transport does
// not change the computation being measured.
func testDeterminism(t *testing.T, f Factory, plan *mcb.FaultPlan) {
	leakCheck(t)
	const p, k, rounds = 6, 3, 40
	cfg := mcb.Config{P: p, K: k, Faults: plan}

	ref, err := mcb.Run(cfg, patternPrograms(p, k, rounds))
	if err != nil {
		t.Fatalf("in-process reference run: %v", err)
	}
	want := reportJSON(t, cfg, ref)

	tr := f(t, p, k)
	defer tr.Close()
	res, err := tr.Run(context.Background(), cfg, patternPrograms(p, k, rounds))
	if err != nil {
		t.Fatalf("transport run: %v", err)
	}
	got := reportJSON(t, cfg, res)
	if !bytes.Equal(got, want) {
		t.Errorf("report diverged from in-process engine:\n got: %s\nwant: %s", got, want)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// testExchange requires a boundary exchange to return the complete blob
// table to every caller.
func testExchange(t *testing.T, f Factory) {
	leakCheck(t)
	const p, k = 6, 3
	tr := f(t, p, k)
	defer tr.Close()

	// A transport is allowed to rendezvous exchanges with engine rounds
	// only; run one round first so lazily-connecting transports are live.
	cfg := mcb.Config{P: p, K: k}
	if _, err := tr.Run(context.Background(), cfg, patternPrograms(p, k, 8)); err != nil {
		t.Fatalf("warmup run: %v", err)
	}

	for round := 0; round < 2; round++ {
		tag := fmt.Sprintf("conformance:%d", round)
		blobs := make([][]byte, p)
		for i := range blobs {
			blobs[i] = []byte(fmt.Sprintf("blob-%d-%s", i, tag))
		}
		got, err := tr.Exchange(tag, blobs)
		if err != nil {
			t.Fatalf("exchange %s: %v", tag, err)
		}
		if len(got) != p {
			t.Fatalf("exchange %s returned %d blobs, want %d", tag, len(got), p)
		}
		for i := range got {
			if want := fmt.Sprintf("blob-%d-%s", i, tag); string(got[i]) != want {
				t.Errorf("exchange %s blob[%d] = %q, want %q", tag, i, got[i], want)
			}
		}
	}
}

// testAbort requires Abortf in a processor program to fail the whole run
// with an *mcb.AbortError attributing the right processor, wherever that
// program executes.
func testAbort(t *testing.T, f Factory) {
	leakCheck(t)
	const p, k = 5, 2
	tr := f(t, p, k)
	defer tr.Close()

	progs := make([]func(mcb.Node), p)
	for i := 0; i < p; i++ {
		id := i
		progs[i] = func(n mcb.Node) {
			n.IdleN(id + 1)
			if id == p-1 {
				n.Abortf("conformance: invariant violated at proc %d", id)
			}
			for {
				n.Idle()
			}
		}
	}
	_, err := tr.Run(context.Background(), mcb.Config{P: p, K: k}, progs)
	var ae *mcb.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("got %v (%T), want *mcb.AbortError", err, err)
	}
	if ae.Proc != p-1 {
		t.Errorf("abort attributed to proc %d, want %d", ae.Proc, p-1)
	}
	if !errors.Is(err, mcb.ErrAborted) {
		t.Errorf("abort error does not wrap ErrAborted")
	}
}

// testCrash requires scripted crash-stops to surface as *mcb.CrashError
// naming the dead processors.
func testCrash(t *testing.T, f Factory) {
	leakCheck(t)
	const p, k = 4, 2
	tr := f(t, p, k)
	defer tr.Close()

	cfg := mcb.Config{
		P: p, K: k,
		StallTimeout: 2 * time.Second,
		Faults:       &mcb.FaultPlan{Crashes: []mcb.Crash{{Proc: 1, Cycle: 6}}},
	}
	progs := make([]func(mcb.Node), p)
	for i := 0; i < p; i++ {
		id := i
		progs[i] = func(n mcb.Node) {
			for r := 0; r < 200; r++ {
				if id == r%p {
					n.Write(0, mcb.Msg(2, int64(r), 0, int64(id)))
				} else {
					n.Read(0)
				}
			}
		}
	}
	_, err := tr.Run(context.Background(), cfg, progs)
	var ce *mcb.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v (%T), want *mcb.CrashError", err, err)
	}
	if len(ce.Procs) != 1 || ce.Procs[0] != 1 {
		t.Errorf("crash names procs %v, want [1]", ce.Procs)
	}
}

// testBudget requires cycle-budget exhaustion to surface as
// *mcb.BudgetError.
func testBudget(t *testing.T, f Factory) {
	leakCheck(t)
	const p, k = 3, 2
	tr := f(t, p, k)
	defer tr.Close()

	progs := make([]func(mcb.Node), p)
	for i := 0; i < p; i++ {
		progs[i] = func(n mcb.Node) {
			for {
				n.Idle()
			}
		}
	}
	_, err := tr.Run(context.Background(), mcb.Config{P: p, K: k, MaxCycles: 40}, progs)
	var be *mcb.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v (%T), want *mcb.BudgetError", err, err)
	}
}

// testStall wedges the lock-step protocol (one processor stops issuing ops
// while the rest wait on it) and requires the stall watchdog to fire with
// per-processor diagnostics. The wedged program unblocks shortly after so
// the leak check can observe a fully drained transport.
func testStall(t *testing.T, f Factory) {
	leakCheck(t)
	const p, k = 4, 2
	tr := f(t, p, k)
	defer tr.Close()

	// The wedged processor is released either by the timer or, if the run
	// returns first, by the deferred Stop below — exactly once, so the
	// drained goroutines satisfy leakCheck however long the run took.
	unblock := make(chan struct{})
	timer := time.AfterFunc(1500*time.Millisecond, func() { close(unblock) })
	defer func() {
		if timer.Stop() {
			close(unblock)
		}
	}()

	progs := make([]func(mcb.Node), p)
	for i := 0; i < p; i++ {
		id := i
		progs[i] = func(n mcb.Node) {
			n.IdleN(4)
			if id == 0 {
				<-unblock // wedge: never issues its next op until unblocked
			}
			for {
				n.Idle()
			}
		}
	}
	_, err := tr.Run(context.Background(), mcb.Config{P: p, K: k, StallTimeout: 150 * time.Millisecond}, progs)
	var se *mcb.StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v (%T), want *mcb.StallError", err, err)
	}
	if len(se.Stalled) == 0 {
		t.Errorf("stall carries no per-processor diagnostics")
	}
}

// testCancel requires context cancellation mid-run to return a typed
// *mcb.AbortError promptly, with no peers left running.
func testCancel(t *testing.T, f Factory) {
	leakCheck(t)
	const p, k = 4, 2
	tr := f(t, p, k)
	defer tr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(100*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	progs := make([]func(mcb.Node), p)
	for i := 0; i < p; i++ {
		progs[i] = func(n mcb.Node) {
			for {
				n.Idle()
			}
		}
	}
	start := time.Now()
	_, err := tr.Run(ctx, mcb.Config{P: p, K: k, StallTimeout: time.Minute}, progs)
	var ae *mcb.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("got %v (%T), want *mcb.AbortError", err, err)
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

// leakCheck snapshots the goroutine count and, after the test AND its
// cleanups (the factory's teardown included) have run, waits for it to
// settle back: a transport must not leak relay, connection or program
// goroutines past Close. Registered as a cleanup before the factory's so it
// runs after them (cleanups are LIFO).
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d live, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
	})
}
