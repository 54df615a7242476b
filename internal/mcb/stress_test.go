package mcb

import (
	"runtime"
	"testing"
	"time"

	"mcbnet/internal/dist"
	"mcbnet/internal/trace"
)

// TestRandomLockStepStress drives the engine with randomized but
// collision-free traffic and validates the recorded trace against the
// schedule and the model's per-cycle constraints.
func TestRandomLockStepStress(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		r := dist.NewRNG(uint64(1000 + trial))
		p := 2 + r.Intn(12)
		k := 1 + r.Intn(p)
		cycles := 50 + r.Intn(200)
		// Precompute a schedule: per cycle, a random subset of k' <= k
		// distinct writers on distinct channels.
		writers := make([][]int, cycles) // writers[c][ch] = proc or -1
		for c := range writers {
			writers[c] = make([]int, k)
			perm := r.Perm(p)
			nw := r.Intn(k + 1)
			for ch := 0; ch < k; ch++ {
				if ch < nw {
					writers[c][ch] = perm[ch]
				} else {
					writers[c][ch] = -1
				}
			}
		}
		rec := trace.New(p, k, 2*cycles)
		cfgT := Config{P: p, K: k, Recorder: rec, StallTimeout: 10 * time.Second}
		res, err := RunUniform(cfgT, func(pr Node) {
			id := pr.ID()
			rl := dist.NewRNG(uint64(id))
			for c := 0; c < cycles; c++ {
				myCh := -1
				for ch, w := range writers[c] {
					if w == id {
						myCh = ch
					}
				}
				if myCh >= 0 {
					pr.WriteRead(myCh, MsgX(1, int64(c)), rl.Intn(k))
				} else {
					pr.Read(rl.Intn(k))
				}
			}
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Stats.Cycles != int64(cycles) {
			t.Fatalf("trial %d: cycles %d, want %d", trial, res.Stats.Cycles, cycles)
		}
		// Validate trace against the schedule.
		var wantMsgs int64
		for c := range writers {
			for _, w := range writers[c] {
				if w >= 0 {
					wantMsgs++
				}
			}
		}
		if res.Stats.Messages != wantMsgs {
			t.Fatalf("trial %d: messages %d, want %d", trial, res.Stats.Messages, wantMsgs)
		}
		for _, e := range rec.Events() {
			c := e.Cycle
			switch e.Kind {
			case trace.KindWrite:
				if writers[c][e.Ch] != int(e.Proc) {
					t.Fatalf("trial %d cycle %d: writer %d on ch %d, want %d",
						trial, c, e.Proc, e.Ch, writers[c][e.Ch])
				}
			case trace.KindRead, trace.KindSilence:
				ok, wrote := e.Kind == trace.KindRead, writers[c][e.Ch] >= 0
				if ok != wrote {
					t.Fatalf("trial %d cycle %d: read ok=%v but channel written=%v",
						trial, c, ok, wrote)
				}
			}
		}
		if err := ValidateTrace(rec, p, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestNoGoroutineLeakAcrossRuns churns many engine runs and checks the
// goroutine count returns to baseline.
func TestNoGoroutineLeakAcrossRuns(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		_, err := RunUniform(Config{P: 8, K: 2}, func(pr Node) {
			for c := 0; c < 5; c++ {
				if pr.ID() == c%8 {
					pr.Write(0, MsgX(0, int64(c)))
				} else {
					pr.Read(0)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+5 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines: %d at start, %d after 200 runs", base, runtime.NumGoroutine())
}

// TestManyProcessorsOneCycle exercises the barrier at larger p.
func TestManyProcessorsOneCycle(t *testing.T) {
	const p = 512
	res, err := RunUniform(Config{P: p, K: 16, StallTimeout: 20 * time.Second}, func(pr Node) {
		if pr.ID() < 16 {
			pr.Write(pr.ID(), MsgX(0, int64(pr.ID())))
		} else {
			m, ok := pr.Read(pr.ID() % 16)
			if !ok || m.X != int64(pr.ID()%16) {
				pr.Abortf("bad read")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != 1 || res.Stats.Messages != 16 {
		t.Errorf("cycles=%d messages=%d", res.Stats.Cycles, res.Stats.Messages)
	}
}

// TestBarrierAbortStorm is the lost-wakeup regression for the worker
// barrier's park protocol (engine.await / engine.advance / engine.abort). It
// alternates GOMAXPROCS=2 and GOMAXPROCS=4 (oversubscribed on small
// machines), i.e. two and four shard workers, so workers that arrive early
// burn their spin and yield budget while a laggard processor holds its own
// worker back, and actually park on barCond instead of catching the
// generation bump while spinning.
//
// The protocol's soundness argument (audited with this test as its witness):
// a waiter publishes parked.Add(1) under barMu and then re-checks the
// generation and the failed flag before calling Wait, while advance() bumps
// barGen before reading parked, and abort() sets failed before taking barMu
// to Broadcast. sync/atomic gives these operations a single total order, so
// either the releaser observes the waiter's parked increment (and broadcasts
// — for abort, the Broadcast serializes on barMu, which the waiter holds
// until Wait releases it, so the wakeup cannot slip between the waiter's
// re-check and its Wait), or the waiter's re-check observes the new
// generation / failed flag and never parks. A regression in that ordering
// makes a worker sleep forever; this test turns it into a hang caught by the
// deadline below, hammering aborts from every protocol stage: mid-cycle
// Abortf, collisions detected by the resolver, and a laggard that forces the
// other workers past their yield budget into the parked state first.
func TestBarrierAbortStorm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	const p, k = 8, 2
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 150; i++ {
			// Two or four workers: the shard layout is fixed when the run
			// starts, at min(GOMAXPROCS, p) workers.
			runtime.GOMAXPROCS(2 + 2*(i%2))
			abortCycle := i % 7
			aborter := i % p
			laggard := (i + 3) % p
			collide := i%3 == 0 // every third run aborts via resolver-detected collision
			_, err := RunUniform(cfg(p, k), func(pr Node) {
				id := pr.ID()
				for c := 0; ; c++ {
					if id == laggard && c == abortCycle {
						// Let the other processors burn their yield budget
						// and park before the abort lands.
						time.Sleep(200 * time.Microsecond)
					}
					if c == abortCycle && id == aborter {
						if collide {
							pr.Write(0, MsgX(1, int64(id)))
							continue
						}
						pr.Abortf("storm %d", i)
					}
					if collide && c == abortCycle && id == (aborter+1)%p {
						pr.Write(0, MsgX(1, int64(id))) // second writer: collision
						continue
					}
					pr.Idle()
				}
			})
			if err == nil {
				t.Errorf("iteration %d: run succeeded, abort lost", i)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("abort storm wedged: a barrier wakeup was lost\n%s", buf)
	}
}

// TestAbortDuringSimulation covers the failure path of the simulation
// driver: a virtual program that aborts must surface as a host error.
func TestAbortDuringSimulation(t *testing.T) {
	_, err := SimulateUniform(Config{P: 2, K: 1, StallTimeout: 5 * time.Second}, 4, 2,
		func(v *VProc) {
			v.Idle()
			if v.ID() == 2 {
				v.Abortf("virtual invariant broken")
			}
			v.Idle()
		})
	if err == nil {
		t.Fatal("expected simulation abort")
	}
}
