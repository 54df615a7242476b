package mcb

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to the baseline
// (or a small slack above it — the runtime keeps a few service goroutines
// alive) and fails the test if it never does within the deadline. Stdlib
// only: no leak-detection dependency.
func waitGoroutines(t *testing.T, base int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNoLeakAfterCollisionAbort(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		_, err := RunUniform(cfg(4, 2), func(pr Node) {
			// All four processors write channel 0: guaranteed collision.
			pr.Write(0, MsgX(1, int64(pr.ID())))
			pr.IdleN(3)
		})
		var ce *CollisionError
		if !errors.As(err, &ce) {
			t.Fatalf("iteration %d: got %v, want CollisionError", i, err)
		}
	}
	waitGoroutines(t, base, 3*time.Second)
}

func TestNoLeakAfterStallAbort(t *testing.T) {
	base := runtime.NumGoroutine()
	c := cfg(3, 1)
	c.StallTimeout = 50 * time.Millisecond
	progs := []func(Node){
		func(pr Node) { pr.IdleN(8) },
		func(pr Node) { pr.IdleN(8) },
		func(pr Node) {
			pr.Idle()
			// Wedge well past the stall timeout, then issue the next op so
			// the goroutine unwinds through the failed-run check within the
			// abort grace period.
			time.Sleep(300 * time.Millisecond)
			pr.IdleN(7)
		},
	}
	res, err := Run(c, progs)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want StallError", err)
	}
	if res == nil {
		t.Fatal("the wedged processor resumed within the grace period, so a partial result must be returned")
	}
	waitGoroutines(t, base, 3*time.Second)
}

func TestNoLeakAfterCrashAbort(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		c := cfg(4, 2)
		c.Faults = &FaultPlan{Seed: uint64(i + 1), Crashes: []Crash{{Proc: 2, Cycle: 3}}}
		_, err := Run(c, relayPrograms(4, 2, 10, nil))
		var ce *CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("iteration %d: got %v, want CrashError", i, err)
		}
	}
	waitGoroutines(t, base, 3*time.Second)
}

func TestNoLeakAfterAbortf(t *testing.T) {
	base := runtime.NumGoroutine()
	progs := []func(Node){
		func(pr Node) {
			pr.Idle()
			if pr.ID() == 1 {
				pr.Abortf("deliberate")
			}
			pr.IdleN(5)
		},
		// The abort fires while the other processors sleep mid-IdleN-batch:
		// their worker waits on no token, yet everybody must wake.
		func(pr Node) {
			pr.Idle()
			if pr.ID() == 1 {
				pr.Idle()
				pr.Abortf("deliberate")
			}
			pr.IdleN(40)
		},
	}
	for i := 0; i < 20; i++ {
		for j, prog := range progs {
			_, err := RunUniform(cfg(4, 2), prog)
			var ae *AbortError
			if !errors.As(err, &ae) {
				t.Fatalf("iteration %d, program %d: got %v, want AbortError", i, j, err)
			}
			if ae.Proc != 1 || ae.VProc != -1 {
				t.Fatalf("iteration %d, program %d: AbortError = %+v, want Proc=1 VProc=-1", i, j, ae)
			}
		}
	}
	waitGoroutines(t, base, 3*time.Second)
}

// TestNoLeakAfterBudgetAbort: a MaxCycles budget that fires while every
// processor sits in one big IdleN batch aborts from inside the resolver, with
// no processor submission in flight; workers and processors must still drain.
func TestNoLeakAfterBudgetAbort(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		c := cfg(4, 2)
		c.MaxCycles = 16
		_, err := RunUniform(c, func(pr Node) { pr.IdleN(1000) })
		var be *BudgetError
		if !errors.As(err, &be) || be.Budget != "cycles" {
			t.Fatalf("iteration %d: got %v, want a cycles BudgetError", i, err)
		}
	}
	waitGoroutines(t, base, 3*time.Second)
}

// TestAbortGraceConfigurable covers the configurable abort grace window: a
// processor wedged in local computation for longer than AbortGrace makes Run
// give up and return a nil Result (touching Stats would race), but the
// goroutine still drains once the processor resumes — no permanent leak.
func TestAbortGraceConfigurable(t *testing.T) {
	base := runtime.NumGoroutine()
	c := cfg(2, 1)
	c.StallTimeout = 40 * time.Millisecond
	c.AbortGrace = 50 * time.Millisecond
	release := make(chan struct{})
	progs := []func(Node){
		func(pr Node) { pr.IdleN(4) },
		func(pr Node) {
			pr.Idle()
			<-release // wedged until the test releases it, far past the grace
			pr.IdleN(3)
		},
	}
	start := time.Now()
	res, err := Run(c, progs)
	elapsed := time.Since(start)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want StallError", err)
	}
	if res != nil {
		t.Fatal("a straggler past AbortGrace means Stats is not quiescent: Result must be nil")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Run took %v; the 50ms AbortGrace was not honored", elapsed)
	}
	close(release)
	waitGoroutines(t, base, 3*time.Second)
}

func TestStallErrorDiagnostics(t *testing.T) {
	c := cfg(3, 1)
	c.StallTimeout = 50 * time.Millisecond
	progs := []func(Node){
		func(pr Node) {
			pr.Write(0, MsgX(1, 10))
			pr.IdleN(5)
		},
		func(pr Node) {
			pr.Read(0)
			pr.IdleN(5)
		},
		func(pr Node) {
			pr.Idle()
			pr.Idle()
			// Stops issuing ops after two idles: the wedged processor.
			time.Sleep(300 * time.Millisecond)
			pr.IdleN(4)
		},
	}
	_, err := Run(c, progs)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want StallError", err)
	}
	if se.Timeout != c.StallTimeout {
		t.Fatalf("StallError.Timeout = %v, want %v", se.Timeout, c.StallTimeout)
	}
	if se.Cycle != 2 {
		t.Fatalf("StallError.Cycle = %d, want 2 completed cycles", se.Cycle)
	}
	if len(se.Stalled) != 1 || se.Stalled[0].Proc != 2 {
		t.Fatalf("Stalled = %v, want exactly processor 2", se.Stalled)
	}
	ps := se.Stalled[0]
	if ps.LastOp != "idle" || ps.Steps != 2 {
		t.Fatalf("ProcState = %+v, want LastOp=idle Steps=2", ps)
	}
}

func TestStallErrorBeforeFirstOp(t *testing.T) {
	c := cfg(2, 1)
	c.StallTimeout = 40 * time.Millisecond
	progs := []func(Node){
		func(pr Node) { pr.IdleN(3) },
		func(pr Node) {
			// Never issues an op before the watchdog fires.
			time.Sleep(250 * time.Millisecond)
			pr.IdleN(3)
		},
	}
	_, err := Run(c, progs)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want StallError", err)
	}
	if len(se.Stalled) != 1 || se.Stalled[0].Proc != 1 || se.Stalled[0].LastOp != "none" || se.Stalled[0].Steps != 0 {
		t.Fatalf("Stalled = %v, want processor 1 with no op issued", se.Stalled)
	}
}
