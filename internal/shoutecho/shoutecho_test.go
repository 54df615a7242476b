package shoutecho

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"mcbnet/internal/dist"
	"mcbnet/internal/mcb"
	"mcbnet/internal/seq"
)

func cfg(p int) Config {
	return Config{P: p, StallTimeout: 10 * time.Second}
}

func TestShoutEchoRound(t *testing.T) {
	const p = 5
	got := make([][]Message, p)
	heard := make([]Message, p)
	prog := func(pr *Proc) {
		if pr.ID() == 2 {
			got[2] = pr.Shout(mcb.MsgX(1, 42))
			return
		}
		heard[pr.ID()] = pr.Echo(func(s Message) Message {
			return mcb.MsgX(2, s.X*10+int64(pr.ID()))
		})
	}
	res, err := RunUniform(cfg(p), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Stats.Rounds)
	}
	if res.Stats.Messages != p {
		t.Errorf("messages = %d, want %d (1 shout + %d echoes)", res.Stats.Messages, p, p-1)
	}
	for j := 0; j < p; j++ {
		if j == 2 {
			continue
		}
		if heard[j].X != 42 {
			t.Errorf("proc %d heard %v", j, heard[j])
		}
		if got[2][j].X != 420+int64(j) {
			t.Errorf("echo from %d = %v", j, got[2][j])
		}
	}
}

func TestTwoShoutersFail(t *testing.T) {
	prog := func(pr *Proc) {
		if pr.ID() < 2 {
			pr.Shout(mcb.MsgX(0, 0))
		} else {
			pr.Echo(func(Message) Message { return Message{} })
		}
	}
	if _, err := RunUniform(cfg(4), prog); !errors.Is(err, ErrAborted) {
		t.Fatalf("expected abort, got %v", err)
	}
}

func TestEchoesWithoutShouterFail(t *testing.T) {
	prog := func(pr *Proc) {
		pr.Echo(func(Message) Message { return Message{} })
	}
	if _, err := RunUniform(cfg(3), prog); !errors.Is(err, ErrAborted) {
		t.Fatalf("expected abort, got %v", err)
	}
}

func TestRoundLimit(t *testing.T) {
	c := cfg(2)
	c.MaxRounds = 5
	prog := func(pr *Proc) {
		for {
			if pr.ID() == 0 {
				pr.Shout(Message{})
			} else {
				pr.Echo(func(Message) Message { return Message{} })
			}
		}
	}
	if _, err := RunUniform(c, prog); !errors.Is(err, ErrAborted) {
		t.Fatalf("expected abort, got %v", err)
	}
}

func TestProgramPanicReported(t *testing.T) {
	prog := func(pr *Proc) {
		if pr.ID() == 1 {
			panic("bug")
		}
		if pr.ID() == 0 {
			pr.Shout(Message{})
		} else {
			pr.Echo(func(Message) Message { return Message{} })
		}
	}
	if _, err := RunUniform(cfg(3), prog); !errors.Is(err, ErrAborted) {
		t.Fatalf("expected abort, got %v", err)
	}
}

func TestMax(t *testing.T) {
	inputs := [][]int64{{3, 9, 1}, {12, 4}, {7}, {2, 11}}
	got, res, err := Max(inputs, cfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Errorf("max = %d, want 12", got)
	}
	if res.Stats.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Stats.Rounds)
	}
}

func kthLargestRef(inputs [][]int64, d int) int64 {
	flat := dist.Flatten(inputs)
	seq.SortInt64Desc(flat)
	return flat[d-1]
}

func TestSelectBasic(t *testing.T) {
	inputs := [][]int64{{9, 3}, {7}, {1, 5, 4}}
	for d := 1; d <= 6; d++ {
		got, _, err := Select(inputs, d, cfg(0))
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if want := kthLargestRef(inputs, d); got != want {
			t.Errorf("d=%d: got %d, want %d", d, got, want)
		}
	}
}

func TestSelectConfigsAndRanks(t *testing.T) {
	r := dist.NewRNG(301)
	for _, c := range []struct{ n, p int }{{64, 4}, {500, 10}, {2048, 16}, {100, 100}} {
		card := dist.NearlyEven(c.n, c.p)
		inputs := dist.Values(r, card)
		for _, d := range []int{1, c.n / 3, (c.n + 1) / 2, c.n} {
			got, _, err := Select(inputs, d, cfg(0))
			if err != nil {
				t.Fatalf("n=%d p=%d d=%d: %v", c.n, c.p, d, err)
			}
			if want := kthLargestRef(inputs, d); got != want {
				t.Errorf("n=%d p=%d d=%d: got %d, want %d", c.n, c.p, d, got, want)
			}
		}
	}
}

func TestSelectDuplicates(t *testing.T) {
	r := dist.NewRNG(302)
	inputs := dist.ValuesWithDuplicates(r, dist.Geometric(300, 6))
	for _, d := range []int{1, 150, 300} {
		got, _, err := Select(inputs, d, cfg(0))
		if err != nil {
			t.Fatal(err)
		}
		if want := kthLargestRef(inputs, d); got != want {
			t.Errorf("d=%d: got %d, want %d", d, got, want)
		}
	}
}

func TestSelectRoundsLogarithmic(t *testing.T) {
	// [Marb85]: O(log n) rounds. Three rounds per phase, >= 1/4 purged per
	// phase: rounds <= 3*log_{4/3}(n) + 3.
	r := dist.NewRNG(303)
	for _, n := range []int{256, 4096, 65536} {
		inputs := dist.Values(r, dist.Even(n, 16))
		_, rep, err := Select(inputs, n/2, cfg(0))
		if err != nil {
			t.Fatal(err)
		}
		bound := int64(3*math.Log(float64(n))/math.Log(4.0/3.0)) + 6
		if rep.Stats.Rounds > bound {
			t.Errorf("n=%d: %d rounds > bound %d", n, rep.Stats.Rounds, bound)
		}
		// And a sanity lower bound: at least log2-ish phases.
		if rep.FilterPhases < 3 {
			t.Errorf("n=%d: only %d phases", n, rep.FilterPhases)
		}
	}
}

func TestSelectProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := dist.NewRNG(seed)
		p := 2 + r.Intn(8)
		n := p + r.Intn(150)
		card := dist.RandomComposition(r, n, p)
		inputs := dist.Values(r, card)
		d := 1 + r.Intn(n)
		got, _, err := Select(inputs, d, cfg(0))
		if err != nil {
			return false
		}
		return got == kthLargestRef(inputs, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectValidation(t *testing.T) {
	if _, _, err := Select(nil, 1, cfg(0)); err == nil {
		t.Error("expected error for empty network")
	}
	if _, _, err := Select([][]int64{{1}}, 2, cfg(0)); err == nil {
		t.Error("expected error for rank out of range")
	}
	if _, _, err := Select([][]int64{{}, {}}, 1, cfg(0)); err == nil {
		t.Error("expected error for an entirely empty set")
	}
	// Empty processors are fine as long as the set is non-empty.
	if v, _, err := Select([][]int64{{5}, {}}, 1, cfg(0)); err != nil || v != 5 {
		t.Errorf("empty-processor select = %d, %v", v, err)
	}
}

func TestSelectMessagesPerRound(t *testing.T) {
	inputs := [][]int64{{5, 1}, {3, 9}, {2, 8}, {7, 4}}
	_, rep, err := Select(inputs, 4, cfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Messages != rep.Stats.Rounds*4 {
		t.Errorf("messages = %d, want rounds*p = %d", rep.Stats.Messages, rep.Stats.Rounds*4)
	}
}

// TestMessagesSkipLeavingProcessors: a processor whose program returns in a
// round sends no echo in it, so the round costs one shout plus one echo.
func TestMessagesSkipLeavingProcessors(t *testing.T) {
	res, err := Run(cfg(3), []func(*Proc){
		func(pr *Proc) { pr.Shout(mcb.MsgX(1, 7)) },
		func(pr *Proc) { pr.Echo(func(Message) Message { return mcb.MsgX(2, 0) }) },
		func(pr *Proc) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 1 || res.Stats.Messages != 2 {
		t.Errorf("stats = %+v, want 1 round and 2 messages (1 shout + 1 echo)", res.Stats)
	}
}

// TestEchoFailureBlamesEchoer: replies run on whichever processor resolves
// the round, yet a panic or an Abortf in processor 2's reply must name
// processor 2 every time.
func TestEchoFailureBlamesEchoer(t *testing.T) {
	for _, c := range []struct {
		name  string
		reply func(pr *Proc) Message
		want  string
	}{
		{"panic", func(pr *Proc) Message { panic("bad echo") },
			"shoutecho: run aborted: processor 2 panicked in its echo: bad echo"},
		{"abortf", func(pr *Proc) Message { pr.Abortf("bad echo"); return Message{} },
			"shoutecho: run aborted: processor 2: bad echo"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				_, err := RunUniform(cfg(3), func(pr *Proc) {
					switch pr.ID() {
					case 0:
						pr.Shout(mcb.MsgX(1, 0))
					case 1:
						pr.Echo(func(Message) Message { return Message{} })
					case 2:
						pr.Echo(func(Message) Message { return c.reply(pr) })
					}
				})
				if !errors.Is(err, ErrAborted) || err.Error() != c.want {
					t.Fatalf("iteration %d: err = %v, want %q", i, err, c.want)
				}
			}
		})
	}
}
