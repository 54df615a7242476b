package mcb

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestSimulateVProcAbortTyped: a virtual processor calling Abortf must
// surface as a structured *AbortError carrying the virtual id (and the host
// id it was simulated on), not a generic "processor panicked" string.
func TestSimulateVProcAbortTyped(t *testing.T) {
	_, err := SimulateUniform(simCfg(2, 1), 6, 2, func(v *VProc) {
		v.Idle()
		if v.ID() == 3 {
			v.Abortf("deliberate virtual failure %d", v.ID())
		}
		v.IdleN(3)
	})
	if err == nil {
		t.Fatal("expected the virtual abort to fail the run")
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("virtual abort must wrap ErrAborted, got %v", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("got %T (%v), want *AbortError", err, err)
	}
	if ae.VProc != 3 {
		t.Fatalf("AbortError.VProc = %d, want virtual processor 3", ae.VProc)
	}
	// Virtual ids are dealt round-robin (vid = slot*p + host), so vid 3 runs
	// on host processor 3 mod 2 = 1.
	if ae.Proc != 1 {
		t.Fatalf("AbortError.Proc = %d, want host processor 1", ae.Proc)
	}
}

// TestSimulateVProcPanicReported: a plain panic inside a virtual program is
// still reported as an engine abort (no hang, errors.Is ErrAborted), and the
// abort stays attributed to the panicking VIRTUAL processor — not merely to
// the host processor that happened to be stepping it.
func TestSimulateVProcPanicReported(t *testing.T) {
	_, err := SimulateUniform(simCfg(2, 1), 4, 2, func(v *VProc) {
		v.Idle()
		if v.ID() == 2 {
			panic("boom")
		}
		v.IdleN(2)
	})
	if err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("got %v, want an abort wrapping ErrAborted", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("got %T (%v), want *AbortError", err, err)
	}
	if ae.VProc != 2 {
		t.Fatalf("AbortError.VProc = %d, want virtual processor 2", ae.VProc)
	}
	if ae.Proc != 0 { // vid 2 runs on host processor 2 mod 2 = 0
		t.Fatalf("AbortError.Proc = %d, want host processor 0", ae.Proc)
	}
}

// TestSimulateVProcAbortSharded repeats the virtual abort and panic
// attribution, where the host processors are stepped by shared workers: the
// AbortError must still carry the virtual processor id (not a worker's), the
// run must not wedge the worker rendezvous, and the goroutine count must
// drain (virtual programs, host drivers, workers).
func TestSimulateVProcAbortSharded(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		_, err := SimulateUniform(simCfg(2, 1), 6, 2, func(v *VProc) {
			v.Idle()
			if v.ID() == 3 {
				v.Abortf("deliberate virtual failure %d", v.ID())
			}
			v.IdleN(3)
		})
		var ae *AbortError
		if !errors.As(err, &ae) {
			t.Fatalf("iteration %d: got %T (%v), want *AbortError", i, err, err)
		}
		if ae.VProc != 3 || ae.Proc != 1 {
			t.Fatalf("iteration %d: AbortError = Proc %d / VProc %d, want Proc 1 / VProc 3", i, ae.Proc, ae.VProc)
		}

		_, err = SimulateUniform(simCfg(2, 1), 4, 2, func(v *VProc) {
			v.Idle()
			if v.ID() == 2 {
				panic("boom")
			}
			v.IdleN(2)
		})
		if !errors.As(err, &ae) {
			t.Fatalf("iteration %d: got %T (%v), want *AbortError", i, err, err)
		}
		if ae.VProc != 2 {
			t.Fatalf("iteration %d: AbortError.VProc = %d, want 2", i, ae.VProc)
		}
	}
	waitGoroutines(t, base, 5*time.Second)
}

// TestSimulateHostDropFaultSurfaces: faults injected on the HOST network
// while it simulates an MCB(p', k') break the simulation protocol itself
// (repeated messages and the termination reduction go missing). The run must
// fail with a typed abort — never hang and never return a silent success.
func TestSimulateHostDropFaultSurfaces(t *testing.T) {
	host := simCfg(2, 1)
	host.Faults = &FaultPlan{Seed: 3, DropRate: 1}
	host.StallTimeout = 2 * time.Second
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = SimulateUniform(host, 4, 2, func(v *VProc) {
			if v.ID() == 0 {
				v.Write(0, MsgX(1, 42))
			} else {
				v.Read(0)
			}
			v.IdleN(2)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("simulation under host faults hung")
	}
	if err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("got %v, want an abort wrapping ErrAborted", err)
	}
}

// TestSimulateHostCrashSurfaces: a host processor crash-stopping mid-
// simulation kills all its virtual processors; the run must end with a
// CrashError naming the host processor.
func TestSimulateHostCrashSurfaces(t *testing.T) {
	host := simCfg(2, 1)
	host.Faults = &FaultPlan{Seed: 1, Crashes: []Crash{{Proc: 0, Cycle: 2}}}
	host.StallTimeout = 2 * time.Second
	host.MaxCycles = 10000
	_, err := SimulateUniform(host, 4, 2, func(v *VProc) {
		v.IdleN(5)
	})
	if err == nil {
		t.Fatal("expected the host crash to fail the simulation")
	}
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("got %T (%v), want *CrashError", err, err)
	}
	if len(ce.Procs) != 1 || ce.Procs[0] != 0 {
		t.Fatalf("CrashError.Procs = %v, want [0]", ce.Procs)
	}
}
