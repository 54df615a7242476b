// Command mcbselect runs distributed selection by rank on a simulated
// MCB(p, k) network and reports the model costs.
//
// Usage:
//
//	mcbselect -n 65536 -p 16 -k 8 [-d 0] [-algo filter|sort]
//	          [-dist even|random|oneheavy|geometric] [-seed 1] [-v] [-json]
//	          [-fault-rate 0.01 -fault-seed 7 -retries 3 [-degrade]]
//
// -d is the descending rank (1 = maximum); 0 means the median. -v prints
// the per-phase candidate counts and purge fractions (Figure 2). -json
// replaces the text output with a machine-readable mcb.Report whose phases
// carry the per-filter-iteration costs and candidate counts.
//
// -fault-rate enables deterministic seeded fault injection (drops plus
// checksum-guarded corruptions) and -retries the verify-and-retry layer:
// every accepted answer is re-checked by rank recount. -degrade additionally
// continues after processor crash-stops with the dead processors' elements
// given up (rank -d is then taken over the survivors).
//
// With -retries above 1 or a -checkpoint-dir, recovery runs the filtering
// selection as per-iteration segments with verified phase-boundary snapshots,
// and failures resume from the last accepted one; -checkpoint-dir also saves
// the snapshots into the directory, and -resume continues a previous (killed
// or failed) run from it. -outage ch:from[:to] scripts a channel outage and
// -degrade-outage finishes on the k' < k surviving channels when the failure
// is attributable to scripted outages; the report's per-channel counts keep
// the numbering of the -k channels.
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
	d := flag.Int("d", 0, "descending rank to select (1 = max); 0 = median")
	algoName := flag.String("algo", "filter", "algorithm: filter (Sec 8) or sort (naive baseline)")
	distName := flag.String("dist", "even", "distribution: even, random, oneheavy, geometric")
	heavy := flag.Float64("heavy", 0.5, "n_max/n fraction for -dist oneheavy")
	seed := flag.Uint64("seed", 1, "workload seed")
	verbose := flag.Bool("v", false, "print filtering phase details")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report instead of text")
	faultRate := flag.Float64("fault-rate", 0, "per-delivery drop and corruption probability (0 = no fault injection)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection seed (independent of the workload seed)")
	retries := flag.Int("retries", 1, "max verify-and-retry attempts (1 = single unverified run)")
	degrade := flag.Bool("degrade", false, "continue after processor crashes with the dead processors' elements given up")
	checkpointDir := flag.String("checkpoint-dir", "", "directory to save phase-boundary snapshots in, for -resume")
	resume := flag.Bool("resume", false, "continue from a compatible snapshot in -checkpoint-dir, if one exists")
	outageSpec := flag.String("outage", "", "scripted channel outage ch:from[:to] (to omitted = permanent)")
	degradeOutage := flag.Bool("degrade-outage", false, "drop outage-stricken channels and finish on the survivors (k' < k)")
	flag.Parse()

	rank := *d
	if rank == 0 {
		rank = (*n + 1) / 2
	}
	algo := core.SelFiltering
	switch *algoName {
	case "filter":
	case "sort":
		algo = core.SelSortBaseline
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algoName))
	}
	card, err := dist.ByName(*distName, *n, *p, *heavy, *seed)
	if err != nil {
		fatal(err)
	}
	inputs := dist.Values(dist.NewRNG(*seed), card)

	opts := core.SelectOptions{
		K: *k, D: rank, Algorithm: algo, StallTimeout: 5 * time.Minute,
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
		val int64
		rep *core.SelectReport
	)
	if faulted || *retries > 1 || opts.Checkpoints != nil {
		opts.Retry = mcb.RetryPolicy{MaxAttempts: *retries, DegradeOnCrash: *degrade, DegradeOnOutage: *degradeOutage}
		val, rep, err = core.SelectWithRetry(inputs, opts)
	} else {
		val, rep, err = core.Select(inputs, opts)
	}
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	if *jsonOut {
		jr := mcb.NewReport(mcb.Config{P: *p, K: *k}, &rep.Stats)
		jr.Recovery = rep.Recovery
		jr.Extra = map[string]any{
			"op":              "select",
			"n":               *n,
			"d":               rank,
			"algorithm":       rep.Algorithm.String(),
			"dist":            *distName,
			"seed":            *seed,
			"value":           val,
			"filter_phases":   rep.FilterPhases,
			"candidates":      rep.Candidates,
			"purge_fractions": rep.PurgeFractions,
			"wall_ms":         wall.Milliseconds(),
		}
		if faulted {
			jr.Extra["fault_rate"] = *faultRate
			jr.Extra["fault_seed"] = *faultSeed
		}
		if len(rep.DeadProcs) > 0 {
			jr.Extra["dead_procs"] = rep.DeadProcs
		}
		if err := jr.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("selected rank %d of n=%d on MCB(p=%d, k=%d) with %s: value = %d\n",
		rank, *n, *p, *k, rep.Algorithm, val)
	fmt.Printf("cycles:   %d\n", rep.Stats.Cycles)
	fmt.Printf("messages: %d\n", rep.Stats.Messages)
	fmt.Printf("lower bounds: %.1f messages, %.1f cycles (Sec 4)\n",
		adversary.SelectionMessagesLB(card, rank),
		adversary.SelectionCyclesLB(card, rank, *k))
	fmt.Printf("filtering phases: %d; wall time %v\n", rep.FilterPhases, wall.Round(time.Millisecond))
	if rep.Attempts > 1 || rep.Stats.Faults.Total() > 0 {
		f := &rep.Stats.Faults
		fmt.Printf("faults (final attempt %d of %d): %d dropped, %d corrupted (%d detected), %d crash(es)\n",
			rep.Attempts, *retries, f.Drops, f.Corruptions+f.Detected, f.Detected, len(f.Crashes))
	}
	if len(rep.DeadProcs) > 0 {
		fmt.Printf("degraded: gave up on processors %v; rank taken over survivors\n", rep.DeadProcs)
	}
	if rep.Resumes > 0 || rep.ReplayedCycles > 0 || rep.CheckpointPhase != "" {
		fmt.Printf("recovery: %d resume(s) from checkpoint %q, %d cycles replayed (accepted path: %d)\n",
			rep.Resumes, rep.CheckpointPhase, rep.ReplayedCycles, rep.Stats.Cycles)
	}
	if rep.DegradedK > 0 {
		fmt.Printf("degraded: finished on k'=%d channels after losing %v\n", rep.DegradedK, rep.DeadChannels)
	}

	if *verbose && rep.FilterPhases > 0 {
		fmt.Println("\nfiltering phases (Figure 2):")
		for i, f := range rep.PurgeFractions {
			fmt.Printf("  phase %-3d candidates %-8d purged %.3f\n", i+1, rep.Candidates[i], f)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcbselect:", err)
	os.Exit(1)
}
