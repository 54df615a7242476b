package mcb

import (
	"strings"
	"testing"

	"mcbnet/internal/trace"
)

func TestValidateTraceAcceptsRealRun(t *testing.T) {
	c := cfg(8, 4)
	c.Recorder = trace.New(8, 4, 64)
	_, err := RunUniform(c, func(pr Node) {
		id := pr.ID()
		for i := 0; i < 20; i++ {
			if id < 4 {
				pr.WriteRead(id, MsgX(1, int64(i)), (id+1)%4)
			} else {
				pr.Read(id % 4)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(c.Recorder, 8, 4); err != nil {
		t.Fatal(err)
	}
	sums := trace.Summarize(c.Recorder.Events(), c.Recorder.Phases(), 4)
	if len(sums) != 1 || sums[0].Utilization != 1.0 {
		t.Errorf("summaries = %+v, want one phase at utilization 1.0 (all channels busy every cycle)", sums)
	}
}

func TestValidateTraceRejectsCorruptTraces(t *testing.T) {
	// ev builds a recorded event of cycle 0; arg is the message word.
	ev := func(kind trace.Kind, proc, ch int32, arg int64) trace.Event {
		return trace.Event{Kind: kind, Proc: proc, Ch: ch, Arg: arg, Phase: -1}
	}
	w := func(proc, ch int32) trace.Event { return ev(trace.KindWrite, proc, ch, 1) }
	cases := []struct {
		name   string
		events []trace.Event
		want   string
	}{
		{"nil", nil, "nil recorder"},
		{"channel-collision", []trace.Event{w(0, 0), w(1, 0)}, "written twice"},
		{"collision-event", []trace.Event{ev(trace.KindCollision, 1, 0, 0)}, "written twice"},
		{"double-write", []trace.Event{w(0, 0), w(0, 1)}, "writes twice"},
		{"double-read", []trace.Event{ev(trace.KindSilence, 0, 0, 0), ev(trace.KindSilence, 0, 1, 0)}, "reads twice"},
		{"bad-channel", []trace.Event{w(0, 9)}, "out of range"},
		{"bad-read-channel", []trace.Event{ev(trace.KindSilence, 0, -1, 0)}, "out of range"},
		{"bad-proc", []trace.Event{w(42, 0)}, "out of range"},
		{"phantom-read", []trace.Event{ev(trace.KindRead, 0, 0, 1)}, "written=false"},
		{"lost-message", []trace.Event{ev(trace.KindSilence, 0, 0, 0), w(1, 0)}, "written=true"},
		{"wrong-payload", []trace.Event{w(0, 0), ev(trace.KindRead, 1, 0, 2)}, "differs"},
		{"overwritten", make([]trace.Event, 65), "overwrote"},
	}
	for _, c := range cases {
		var rec *trace.Recorder
		if c.events != nil {
			rec = trace.New(64, 2, 64)
			for _, e := range c.events {
				rec.Record(e)
			}
		}
		err := ValidateTrace(rec, 4, 2)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}
