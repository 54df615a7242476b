package lockstep

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

var errToy = errors.New("toy: run aborted")

// sum is a toy model: every active processor submits a number and hears the
// sum of the step's submissions. It records which processors were active in
// each resolved step.
type sum struct {
	mu    sync.Mutex // the test goroutine reads steps after Run
	steps [][]bool
}

func (s *sum) resolve(ops []int, active []bool, results []int) error {
	total := 0
	for id, op := range ops {
		if active[id] {
			total += op
		}
	}
	for id := range results {
		results[id] = total
	}
	s.mu.Lock()
	s.steps = append(s.steps, append([]bool(nil), active...))
	s.mu.Unlock()
	return nil
}

func toyConfig(stall time.Duration) Config {
	return Config{StallTimeout: stall, Unit: "step", ErrAborted: errToy}
}

func uniform(p int, prog func(*Proc[int, int])) []func(*Proc[int, int]) {
	progs := make([]func(*Proc[int, int]), p)
	for i := range progs {
		progs[i] = prog
	}
	return progs
}

// waitGoroutines polls until the goroutine count is back to base.
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

// TestWatchdogDuringLongRun runs many short steps under a 1 ms stall
// timeout, so the watchdog samples the step counter while resolvers advance
// it; under -race this checks that the two never race. Goroutine start-up
// under -race can exceed 1 ms, so a stall abort is an accepted outcome.
func TestWatchdogDuringLongRun(t *testing.T) {
	const steps = 20000
	var s sum
	n, err := Run(toyConfig(time.Millisecond), s.resolve, uniform(2, func(pr *Proc[int, int]) {
		for i := 0; i < steps; i++ {
			pr.Step(1)
		}
	}))
	switch {
	case err == nil:
		if n != steps {
			t.Fatalf("steps = %d, want %d", n, steps)
		}
	case errors.Is(err, errToy) && strings.Contains(err.Error(), "no step completed"):
		t.Logf("stall abort after %d steps: %v", n, err)
	default:
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestStallAbortDrains wedges one processor past the stall timeout: Run
// must return a stall error that wraps the model's sentinel and names its
// unit, without waiting for the wedged program, and every goroutine must
// drain once that program resumes.
func TestStallAbortDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	var s sum
	cfg := toyConfig(20 * time.Millisecond)
	cfg.Unit = "round"
	_, err := Run(cfg, s.resolve, []func(*Proc[int, int]){
		func(pr *Proc[int, int]) {
			for {
				pr.Step(0)
			}
		},
		func(pr *Proc[int, int]) {
			pr.Step(0)
			<-release
			pr.Step(0) // the run has failed: this unwinds the program
			t.Error("Step returned after the run aborted")
		},
	})
	close(release)
	if !errors.Is(err, errToy) {
		t.Fatalf("err = %v, want it to wrap the sentinel", err)
	}
	if want := "toy: run aborted: no round completed in 20ms"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	waitGoroutines(t, base, 5*time.Second)
}

// TestPanicAndAbortfAttribution checks that a plain panic and an Abortf are
// each reported against the processor that raised them.
func TestPanicAndAbortfAttribution(t *testing.T) {
	for _, c := range []struct {
		name string
		fail func(pr *Proc[int, int])
		want string
	}{
		{"panic", func(pr *Proc[int, int]) { panic("boom") }, "toy: run aborted: processor 2 panicked: boom"},
		{"abortf", func(pr *Proc[int, int]) { pr.Abortf("bad value %d", 7) }, "toy: run aborted: processor 2: bad value 7"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s sum
			_, err := Run(toyConfig(10*time.Second), s.resolve, uniform(3, func(pr *Proc[int, int]) {
				pr.Step(1)
				if pr.ID() == 2 {
					c.fail(pr)
				}
				for {
					pr.Step(1)
				}
			}))
			if !errors.Is(err, errToy) {
				t.Fatalf("err = %v, want it to wrap the sentinel", err)
			}
			if err.Error() != c.want {
				t.Errorf("err = %q, want %q", err, c.want)
			}
		})
	}
}

// TestResolvePanicAborts: a panic inside resolve aborts the run on the
// resolving processor's goroutine, and no processor returns from the step
// that failed.
func TestResolvePanicAborts(t *testing.T) {
	const p = 3
	var s sum
	resolves := 0
	resolve := func(ops []int, active []bool, results []int) error {
		if resolves++; resolves == 2 {
			panic("resolve bug")
		}
		return s.resolve(ops, active, results)
	}
	returned := make([]int, p)
	_, err := Run(toyConfig(10*time.Second), resolve, uniform(p, func(pr *Proc[int, int]) {
		for {
			pr.Step(1)
			returned[pr.ID()]++
		}
	}))
	if !errors.Is(err, errToy) || !strings.Contains(err.Error(), "panicked: resolve bug") {
		t.Fatalf("err = %v, want a panic abort wrapping the sentinel", err)
	}
	for id, n := range returned {
		if n != 1 {
			t.Errorf("processor %d returned from %d steps, want 1", id, n)
		}
	}
}

// TestLeavingAndStepLimit runs programs that leave after 1, 2 and 3 steps:
// a leaver is inactive in the step it leaves, a step in which every
// processor leaves is not counted, and the step limit fires only once a
// step beyond it completes.
func TestLeavingAndStepLimit(t *testing.T) {
	const p = 3
	run := func(limit int64) (int64, [][]int, *sum, error) {
		heard := make([][]int, p)
		var s sum
		cfg := toyConfig(10 * time.Second)
		cfg.MaxSteps = limit
		n, err := Run(cfg, s.resolve, uniform(p, func(pr *Proc[int, int]) {
			for i := 0; i <= pr.ID(); i++ {
				heard[pr.ID()] = append(heard[pr.ID()], pr.Step(pr.ID()+1))
			}
		}))
		return n, heard, &s, err
	}

	n, heard, s, err := run(3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(s.steps) != 3 {
		t.Fatalf("steps = %d, resolves = %d, want 3 and 3", n, len(s.steps))
	}
	for step, active := range s.steps {
		for id, a := range active {
			if want := id >= step; a != want {
				t.Errorf("step %d: active[%d] = %v, want %v", step+1, id, a, want)
			}
		}
	}
	// Sums of the active submissions: 1+2+3, then 2+3, then 3.
	want := [][]int{{6}, {6, 5}, {6, 5, 3}}
	for id := range heard {
		if !slices.Equal(heard[id], want[id]) {
			t.Errorf("processor %d heard %v, want %v", id, heard[id], want[id])
		}
	}

	_, _, s, err = run(2)
	if !errors.Is(err, errToy) || !strings.Contains(err.Error(), "step limit 2 exceeded") {
		t.Fatalf("err = %v, want a step-limit abort", err)
	}
	if len(s.steps) != 3 {
		t.Errorf("limit 2 fired after %d resolved steps, want 3", len(s.steps))
	}
}
