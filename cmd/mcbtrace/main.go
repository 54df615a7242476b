// Command mcbtrace runs a small distributed sort or selection with cycle
// tracing enabled and exports the captured run — a debugging and teaching
// view of the collision-free schedules, and the producer of the Perfetto
// traces CI archives.
//
// Usage:
//
//	mcbtrace -n 24 -p 4 -k 2 [-op sort|select] [-format text|jsonl|perfetto|summary]
//	         [-o FILE] [-cycles 40] [-readers] [-seed 1]
//	         [-fault-rate 0.001] [-fault-seed 7]
//	         [-retries 4 -outage ch:from[:to] [-degrade-outage]]
//
// -retries above 1 runs the operation under recovery (core.SortWithRetry /
// core.SelectWithRetry): failed segments resume from the last accepted
// phase-boundary snapshot, the trace then spans every engine run, and
// -format summary carries the recovery metadata (attempts, resumes,
// checkpoint phase, replayed cycles, degraded channel set) and summarizes
// each engine run on its own channels. -outage scripts a channel outage to
// recover from; -degrade-outage lets the run finish on k' < k channels.
//
// Formats:
//
//	text      per-cycle channel grid: `Pi>v` when processor i broadcast
//	          value v, `.` for silence, `*` marking fault-plane events;
//	          phase boundaries are separator lines (default)
//	jsonl     one JSON object per recorded event (re-parseable)
//	perfetto  Chrome trace-event JSON — open in https://ui.perfetto.dev or
//	          chrome://tracing: one track per channel, one per processor,
//	          phase spans on their own track
//	summary   the run's mcb Report JSON with the per-phase trace timeline
//	          (utilization / silences / collisions / faults) merged in
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mcbnet/internal/core"
	"mcbnet/internal/dist"
	"mcbnet/internal/mcb"
	"mcbnet/internal/trace"
)

func main() {
	n := flag.Int("n", 24, "total elements")
	p := flag.Int("p", 4, "processors")
	k := flag.Int("k", 2, "channels")
	op := flag.String("op", "sort", "operation: sort or select")
	format := flag.String("format", "text", "output format: text, jsonl, perfetto or summary")
	outPath := flag.String("o", "", "write output to this file (default stdout)")
	limit := flag.Int("cycles", 60, "text format: print at most this many cycles (0 = all)")
	readers := flag.Bool("readers", false, "text format: also print the readers of each channel")
	seed := flag.Uint64("seed", 1, "workload seed")
	buf := flag.Int("buf", 1<<16, "recorder ring capacity, events per processor")
	faultRate := flag.Float64("fault-rate", 0, "inject seeded faults: per-delivery drop rate (plus corruption at half the rate, checksum-guarded)")
	faultSeed := flag.Uint64("fault-seed", 7, "seed for -fault-rate")
	retries := flag.Int("retries", 1, "max attempts; above 1 runs under recovery, and -format summary carries the recovery metadata")
	outageSpec := flag.String("outage", "", "scripted channel outage ch:from[:to] (to omitted = permanent)")
	degradeOutage := flag.Bool("degrade-outage", false, "drop outage-stricken channels and finish on the survivors (k' < k)")
	flag.Parse()

	r := dist.NewRNG(*seed)
	inputs := dist.Values(r, dist.NearlyEven(*n, *p))

	var plan *mcb.FaultPlan
	if *faultRate > 0 || *outageSpec != "" {
		plan = &mcb.FaultPlan{
			Seed:        *faultSeed,
			DropRate:    *faultRate,
			CorruptRate: *faultRate / 2,
			Checksum:    *faultRate > 0,
		}
		if *outageSpec != "" {
			o, oerr := mcb.ParseOutage(*outageSpec, *k)
			if oerr != nil {
				fatal(oerr)
			}
			plan.Outages = append(plan.Outages, o)
		}
	}

	rec := trace.New(*p, *k, *buf)
	retrying := *retries > 1
	var stats mcb.Stats
	var rcv mcb.Recovery
	switch *op {
	case "sort":
		sopts := core.SortOptions{K: *k, Recorder: rec, Faults: plan}
		var rep *core.Report
		var err error
		if retrying {
			if plan != nil {
				sopts.MaxCycles = 64*int64(*n) + 1<<20
			}
			sopts.Retry = mcb.RetryPolicy{MaxAttempts: *retries, DegradeOnOutage: *degradeOutage}
			_, rep, err = core.SortWithRetry(inputs, sopts)
		} else {
			_, rep, err = core.Sort(inputs, sopts)
		}
		if err != nil {
			runFailed(err, rep == nil)
		}
		if rep != nil {
			stats = rep.Stats
			rcv = rep.Recovery
		}
	case "select":
		sopts := core.SelectOptions{K: *k, D: (*n + 1) / 2, Recorder: rec, Faults: plan}
		var rep *core.SelectReport
		var err error
		if retrying {
			if plan != nil {
				sopts.MaxCycles = 64*int64(*n) + 1<<20
			}
			sopts.Retry = mcb.RetryPolicy{MaxAttempts: *retries, DegradeOnOutage: *degradeOutage}
			_, rep, err = core.SelectWithRetry(inputs, sopts)
		} else {
			_, rep, err = core.Select(inputs, sopts)
		}
		if err != nil {
			runFailed(err, rep == nil)
		}
		if rep != nil {
			stats = rep.Stats
			rcv = rep.Recovery
		}
	default:
		fatal(fmt.Errorf("unknown op %q", *op))
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		out = f
	}

	var err error
	switch *format {
	case "jsonl":
		err = rec.WriteJSONL(out)
	case "perfetto":
		err = rec.WritePerfetto(out)
	case "summary":
		rep := mcb.NewReport(mcb.Config{P: *p, K: *k}, &stats)
		rep.Recovery = rcv
		rep.Extra = map[string]any{"op": *op, "n": *n, "seed": *seed}
		mcb.AttachTraceSummary(rep, rec)
		err = rep.WriteJSON(out)
	case "text":
		err = writeText(out, rec, &stats, *op, *n, *p, *k, *limit, *readers)
	default:
		err = fmt.Errorf("unknown format %q (want text, jsonl, perfetto or summary)", *format)
	}
	if err != nil {
		fatal(err)
	}
}

// writeText renders the per-cycle channel grid from the recorded events.
func writeText(w io.Writer, rec *trace.Recorder, stats *mcb.Stats, op string, n, p, k, limit int, readers bool) error {
	events := rec.Events()
	phases := rec.Phases()
	phaseName := func(id int32) string {
		if id >= 0 && int(id) < len(phases) {
			return phases[id]
		}
		return ""
	}

	util := 0.0
	if stats.Cycles > 0 {
		util = float64(stats.Messages) / (float64(stats.Cycles) * float64(k))
	}
	fmt.Fprintf(w, "%s of n=%d on MCB(p=%d, k=%d): %d cycles, %d messages, %.1f%% channel utilization (%d events recorded",
		op, n, p, k, stats.Cycles, stats.Messages, util*100, rec.Total())
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(w, ", %d dropped — raise -buf", d)
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintln(w)

	if len(stats.Phases) > 0 {
		fmt.Fprintln(w, "phases:")
		for _, ph := range stats.Phases {
			fmt.Fprintf(w, "  %-32s %6d cycles  %6d messages  %5.1f%% util\n",
				ph.Name, ph.Cycles, ph.Messages, ph.Utilization*100)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "%6s", "cycle")
	for c := 0; c < k; c++ {
		fmt.Fprintf(w, "  %-12s", fmt.Sprintf("ch%d", c))
	}
	fmt.Fprintln(w)

	shown := 0
	curPhase := ""
	// Walk the cycle-sorted events, rendering one row per cycle.
	for i := 0; i < len(events); {
		cyc := events[i].Cycle
		j := i
		for j < len(events) && events[j].Cycle == cyc {
			j++
		}
		if limit > 0 && shown >= limit {
			remaining := 0
			for s := i; s < len(events); {
				c := events[s].Cycle
				for s < len(events) && events[s].Cycle == c {
					s++
				}
				remaining++
			}
			fmt.Fprintf(w, "... (%d more cycles)\n", remaining)
			break
		}
		cells := make([]string, k)
		for c := range cells {
			cells[c] = "."
		}
		rd := make([][]string, k)
		phase := curPhase
		for _, e := range events[i:j] {
			if name := phaseName(e.Phase); e.Phase >= 0 {
				phase = name
			}
			switch e.Kind {
			case trace.KindWrite:
				cells[e.Ch] = fmt.Sprintf("P%d>%d", e.Proc+1, e.Arg)
			case trace.KindCollision:
				cells[e.Ch] = fmt.Sprintf("P%d/P%d!", e.Arg+1, e.Proc+1)
			case trace.KindFault:
				if e.Ch >= 0 && int(e.Ch) < k {
					cells[e.Ch] += "*"
				}
			case trace.KindRead, trace.KindSilence:
				if readers {
					rd[e.Ch] = append(rd[e.Ch], fmt.Sprintf("P%d", e.Proc+1))
				}
			}
		}
		if phase != curPhase {
			curPhase = phase
			fmt.Fprintf(w, "------ phase: %s ------\n", curPhase)
		}
		if readers {
			for c := range cells {
				if len(rd[c]) > 0 {
					cells[c] += "->" + strings.Join(rd[c], ",")
				}
			}
		}
		fmt.Fprintf(w, "%6d", cyc)
		for _, cell := range cells {
			fmt.Fprintf(w, "  %-12s", cell)
		}
		fmt.Fprintln(w)
		shown++
		i = j
	}
	return nil
}

// runFailed reports a failed run. With a partial report the trace still
// covers the completed cycles, so rendering proceeds; without one there is
// nothing to show.
func runFailed(err error, noReport bool) {
	fmt.Fprintln(os.Stderr, "mcbtrace: run failed:", err)
	if noReport {
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "mcbtrace: rendering the completed cycles")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcbtrace:", err)
	os.Exit(1)
}
