// Command mcbsort runs a distributed sort on a simulated MCB(p, k) network
// and reports the model costs (cycles and broadcast messages).
//
// Usage:
//
//	mcbsort -n 65536 -p 16 -k 8 [-algo auto|gather|virtual|rank|merge|recursive]
//	        [-dist even|random|oneheavy|geometric] [-seed 1] [-asc] [-v] [-json]
//	        [-fault-rate 0.01 -fault-seed 7 -retries 3]
//
// The workload is generated deterministically from -seed; -v prints the
// per-phase cycle breakdown and the sorted boundaries of each processor.
// -json replaces the text output with a machine-readable mcb.Report
// (including the per-phase breakdown) on stdout.
//
// -fault-rate enables deterministic fault injection: every message delivery
// is dropped or corrupted with the given probability, seeded by -fault-seed
// (checksums detect corruptions, so they read as silence). -retries runs the
// verify-and-retry layer: each attempt's output is verified and faulted
// attempts are re-executed under a re-derived fault plan; the report then
// carries attempts and fault counts. Note a fixed per-message rate compounds
// over the ~n deliveries of a sort, so recovery demos want small n, e.g.
// mcbsort -n 64 -p 8 -k 4 -fault-rate 0.01 -retries 8.
//
// With -retries above 1 or a -checkpoint-dir, recovery runs the sort as phase
// segments, and a typed failure resumes from the last verified phase-boundary
// snapshot instead of restarting from cycle 0. -checkpoint-dir also saves
// every accepted snapshot into the directory, so that a later process can
// continue the run. With -resume, a new invocation first looks for a
// compatible snapshot in the directory and continues a previous (killed or
// failed) run from it. -outage ch:from[:to] scripts a channel outage (to
// omitted = permanent) and -degrade-outage lets the retry layer drop
// outage-stricken channels and finish on the k' < k survivors; the report
// then carries resumes, replayed cycles and the degraded channel set, and its
// per-channel counts keep the numbering of the -k channels.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mcbnet/internal/adversary"
	"mcbnet/internal/checkpoint"
	"mcbnet/internal/core"
	"mcbnet/internal/dist"
	"mcbnet/internal/mcb"
)

func main() {
	n := flag.Int("n", 65536, "total number of elements")
	p := flag.Int("p", 16, "number of processors")
	k := flag.Int("k", 8, "number of broadcast channels")
	algo := flag.String("algo", "auto", "algorithm: auto, gather, virtual, rank, merge, recursive")
	distName := flag.String("dist", "even", "distribution: even, random, oneheavy, geometric")
	heavy := flag.Float64("heavy", 0.5, "n_max/n fraction for -dist oneheavy")
	seed := flag.Uint64("seed", 1, "workload seed")
	asc := flag.Bool("asc", false, "sort ascending instead of the paper's descending order")
	verbose := flag.Bool("v", false, "print phase breakdown and processor boundaries")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report instead of text")
	faultRate := flag.Float64("fault-rate", 0, "per-delivery drop and corruption probability (0 = no fault injection)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection seed (independent of the workload seed)")
	retries := flag.Int("retries", 1, "max verify-and-retry attempts (1 = single unverified run)")
	checkpointDir := flag.String("checkpoint-dir", "", "directory to save phase-boundary snapshots in, for -resume")
	resume := flag.Bool("resume", false, "continue from a compatible snapshot in -checkpoint-dir, if one exists")
	outageSpec := flag.String("outage", "", "scripted channel outage ch:from[:to] (to omitted = permanent)")
	degradeOutage := flag.Bool("degrade-outage", false, "drop outage-stricken channels and finish on the survivors (k' < k)")
	flag.Parse()

	algorithm, err := parseAlgo(*algo)
	if err != nil {
		fatal(err)
	}
	card, err := dist.ByName(*distName, *n, *p, *heavy, *seed)
	if err != nil {
		fatal(err)
	}
	r := dist.NewRNG(*seed)
	inputs := dist.Values(r, card)

	opts := core.SortOptions{K: *k, Algorithm: algorithm, StallTimeout: 5 * time.Minute}
	if *asc {
		opts.Order = core.Ascending
	}
	faulted := *faultRate > 0 || *outageSpec != ""
	if faulted {
		plan := &mcb.FaultPlan{
			Seed:        *faultSeed,
			DropRate:    *faultRate,
			CorruptRate: *faultRate,
			Checksum:    *faultRate > 0,
		}
		if *outageSpec != "" {
			o, oerr := mcb.ParseOutage(*outageSpec, *k)
			if oerr != nil {
				fatal(oerr)
			}
			plan.Outages = append(plan.Outages, o)
		}
		opts.Faults = plan
		// Dropped messages can wedge or derail a lock-step protocol; a cycle
		// budget turns runaway runs into a typed BudgetError the retry layer
		// can act on.
		opts.MaxCycles = 64*int64(*n) + 1<<20
	}
	if *checkpointDir != "" {
		store, serr := checkpoint.NewDir(*checkpointDir)
		if serr != nil {
			fatal(serr)
		}
		opts.Checkpoints = store
		opts.Resume = *resume
	}
	start := time.Now()
	var (
		outputs [][]int64
		rep     *core.Report
	)
	if faulted || *retries > 1 || opts.Checkpoints != nil {
		opts.Retry = mcb.RetryPolicy{MaxAttempts: *retries, DegradeOnOutage: *degradeOutage}
		outputs, rep, err = core.SortWithRetry(inputs, opts)
	} else {
		outputs, rep, err = core.Sort(inputs, opts)
	}
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	if *jsonOut {
		jr := mcb.NewReport(mcb.Config{P: *p, K: *k}, &rep.Stats)
		jr.Recovery = rep.Recovery
		jr.Extra = map[string]any{
			"op":        "sort",
			"n":         *n,
			"algorithm": rep.Algorithm.String(),
			"dist":      *distName,
			"seed":      *seed,
			"wall_ms":   wall.Milliseconds(),
		}
		if faulted {
			jr.Extra["fault_rate"] = *faultRate
			jr.Extra["fault_seed"] = *faultSeed
		}
		if rep.Columns > 0 {
			jr.Extra["columns"] = rep.Columns
			jr.Extra["column_len"] = rep.ColumnLen
		}
		if err := jr.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("sorted n=%d on MCB(p=%d, k=%d) with %s\n", *n, *p, *k, rep.Algorithm)
	if rep.Columns > 0 {
		fmt.Printf("columns: %d of length %d\n", rep.Columns, rep.ColumnLen)
	}
	fmt.Printf("cycles:   %d   (n/k = %d, n_max = %d)\n", rep.Stats.Cycles, *n / *k, card.Max())
	fmt.Printf("messages: %d   (n = %d)\n", rep.Stats.Messages, *n)
	fmt.Printf("lower bounds: %.0f messages, %.0f cycles (Sec 4)\n",
		adversary.SortingMessagesLB(card), adversary.SortingCyclesLB(card, *k))
	fmt.Printf("max aux memory: %d words; wall time %v\n", rep.Stats.MaxAux, wall.Round(time.Millisecond))
	if rep.Attempts > 1 || rep.Stats.Faults.Total() > 0 {
		f := &rep.Stats.Faults
		fmt.Printf("faults (final attempt %d of %d): %d dropped, %d corrupted (%d detected), %d crash(es)\n",
			rep.Attempts, *retries, f.Drops, f.Corruptions+f.Detected, f.Detected, len(f.Crashes))
	}
	if rep.Resumes > 0 || rep.ReplayedCycles > 0 || rep.CheckpointPhase != "" {
		fmt.Printf("recovery: %d resume(s) from checkpoint %q, %d cycles replayed (accepted path: %d)\n",
			rep.Resumes, rep.CheckpointPhase, rep.ReplayedCycles, rep.Stats.Cycles)
	}
	if rep.DegradedK > 0 {
		fmt.Printf("degraded: finished on k'=%d channels after losing %v\n", rep.DegradedK, rep.DeadChannels)
	}

	if *verbose {
		fmt.Println("\nphase breakdown (cycles):")
		for _, pc := range rep.PhaseCycles {
			fmt.Printf("  %-28s %d\n", pc.Label, pc.Cycles)
		}
		fmt.Println("\nper-processor boundaries (first, last):")
		for i, out := range outputs {
			fmt.Printf("  P%-3d n_i=%-6d [%d .. %d]\n", i+1, len(out), out[0], out[len(out)-1])
		}
	}
}

func parseAlgo(s string) (core.Algorithm, error) {
	switch s {
	case "auto":
		return core.AlgoAuto, nil
	case "gather":
		return core.AlgoColumnsortGather, nil
	case "virtual":
		return core.AlgoColumnsortVirtual, nil
	case "rank":
		return core.AlgoRankSort, nil
	case "merge":
		return core.AlgoMergeSort, nil
	case "recursive":
		return core.AlgoColumnsortRecursive, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcbsort:", err)
	os.Exit(1)
}
