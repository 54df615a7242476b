// Command mcbpeer joins a multi-process MCB(p, k) group over TCP: each
// invocation is one peer process hosting a contiguous range of processors,
// and one of them (-seq) additionally hosts the sequencer that resolves the
// broadcast rounds. Every peer runs the same deterministic driver over the
// same seeded workload, so all of them finish with the full result and a
// report identical to the in-process engine's for the same (seed, config).
//
// Usage:
//
//	mcbpeer -peers group.json -name a [-seq | -standby-seq N]
//	        [-op sort|select] [-n 4096] [-seed 1] [-d rank]
//	        [-algo auto|gather|virtual|rank|merge|recursive] [-asc]
//	        [-retries 3] [-checkpoint-dir DIR] [-resume] [-degrade-outage]
//	        [-timeout 5m] [-gather-timeout 30s] [-json] [-v]
//
// The group file (see tcp.PeerFile) names the sequencer address — or, for
// failover, an ordered "sequencers" candidate list — the shape (p, k), each
// peer's processor range and optional declared channel cuts:
//
//	{
//	  "job": "sort-demo",
//	  "sequencers": ["127.0.0.1:7700", "127.0.0.1:7701"],
//	  "p": 8, "k": 3,
//	  "peers": [
//	    {"name": "a", "lo": 0, "hi": 2},
//	    {"name": "b", "lo": 2, "hi": 4},
//	    {"name": "c", "lo": 4, "hi": 6},
//	    {"name": "d", "lo": 6, "hi": 8}
//	  ]
//	}
//
// Sequencer failover: -standby-seq N hosts candidate N of the "sequencers"
// list (-seq is shorthand for candidate 0). Omitting -name makes the process
// a dedicated sequencer: it serves its candidate slot without driving any
// processors, and exits when the group's session ends. Epoch e of a group is
// served by candidate e mod C; if the active sequencer process dies, every
// peer's dial sweep advances to the next candidate and the run resumes from
// the peers' checkpoints — no sequencer-side state is needed.
//
// Kill-and-rejoin: run every peer with -checkpoint-dir (a per-peer
// directory) and -retries > 1. If a peer process dies mid-run, the
// survivors' attempts fail with a typed link error and retry with backoff;
// restarting the dead peer with the same -name plus -resume makes it rejoin
// the job from its last accepted phase-boundary snapshot, and the whole
// group completes. Declared "cut_channels" become permanent scripted
// outages; with -degrade-outage the group finishes on the k' < k surviving
// channels.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/core"
	"mcbnet/internal/dist"
	"mcbnet/internal/mcb"
	"mcbnet/internal/transport/tcp"
)

func main() {
	peersPath := flag.String("peers", "", "peer group file (required; see tcp.PeerFile)")
	name := flag.String("name", "", "this peer's name in the group file (omit to run a dedicated sequencer)")
	seqRole := flag.Bool("seq", false, "also host the group's sequencer (candidate 0 of its list)")
	standbySeq := flag.Int("standby-seq", -1, "host sequencer candidate N of the group file's list")
	gatherTimeout := flag.Duration("gather-timeout", 0, "sequencer: max wait for a full proposal round (0 = default)")
	op := flag.String("op", "sort", "operation: sort or select")
	n := flag.Int("n", 4096, "total number of elements")
	seed := flag.Uint64("seed", 1, "workload seed (identical on every peer)")
	d := flag.Int("d", 0, "rank to select for -op select, 1-based descending (0 = median)")
	algo := flag.String("algo", "auto", "sort algorithm: auto, gather, virtual, rank, merge, recursive")
	asc := flag.Bool("asc", false, "sort ascending instead of the paper's descending order")
	retries := flag.Int("retries", 1, "max retry attempts (failures from peer loss are retryable)")
	checkpointDir := flag.String("checkpoint-dir", "", "per-peer directory for phase-boundary snapshots")
	resume := flag.Bool("resume", false, "continue from a compatible snapshot in -checkpoint-dir")
	degradeOutage := flag.Bool("degrade-outage", false, "finish on k' < k channels after a declared cut")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-attempt stall timeout")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report instead of text")
	verbose := flag.Bool("v", false, "log connection and retry events to stderr")
	flag.Parse()

	seqIdx := *standbySeq
	if *seqRole {
		if seqIdx > 0 {
			fatal(fmt.Errorf("-seq hosts candidate 0; it conflicts with -standby-seq %d", seqIdx))
		}
		seqIdx = 0
	}
	if *peersPath == "" {
		fatal(fmt.Errorf("-peers is required"))
	}
	if *name == "" && seqIdx < 0 {
		fatal(fmt.Errorf("-name is required unless hosting a sequencer (-seq or -standby-seq)"))
	}
	pf, err := tcp.LoadPeerFile(*peersPath)
	if err != nil {
		fatal(err)
	}
	cands := pf.Candidates()
	if seqIdx >= len(cands) {
		fatal(fmt.Errorf("-standby-seq %d: the group file lists only %d sequencer candidate(s)", seqIdx, len(cands)))
	}
	algorithm, err := parseAlgo(*algo)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tag := *name
	if tag == "" {
		tag = fmt.Sprintf("seq%d", seqIdx)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mcbpeer[%s]: %s\n", tag, fmt.Sprintf(format, args...))
		}
	}

	if seqIdx >= 0 {
		seq, serr := tcp.NewSequencer(tcp.SequencerOptions{
			Addr: cands[seqIdx], Job: pf.Job, P: pf.P,
			Index: seqIdx, Candidates: len(cands),
			GatherTimeout: *gatherTimeout, Logf: logf,
		})
		if serr != nil {
			fatal(serr)
		}
		defer seq.Close()
		if *name == "" {
			// Dedicated sequencer: serve the candidate slot in the foreground
			// and exit with the session. No processors are hosted here, so a
			// SIGKILL of this process is exactly the failover drill — peers
			// sweep to the next candidate and resume from their checkpoints.
			logf("sequencer candidate %d listening on %s", seqIdx, seq.Addr())
			if err := seq.Serve(ctx); err != nil && ctx.Err() == nil {
				fatal(err)
			}
			return
		}
		go seq.Serve(ctx)
		logf("sequencer candidate %d listening on %s", seqIdx, seq.Addr())
	}

	spec := pf.Find(*name)
	if spec == nil {
		fatal(fmt.Errorf("peer %q is not in %s", *name, *peersPath))
	}

	cl, err := tcp.NewClient(tcp.ClientOptions{
		Addrs: cands, Job: pf.Job, Name: spec.Name,
		Lo: spec.Lo, Hi: spec.Hi,
		JitterSeed: *seed ^ uint64(spec.Lo+1),
		Logf:       logf,
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	// Every peer derives the identical full workload from the seed; only the
	// engine rounds and result exchanges touch the network.
	card := dist.NearlyEven(*n, pf.P)
	inputs := dist.Values(dist.NewRNG(*seed), card)

	var store checkpoint.Store
	if *checkpointDir != "" {
		ds, derr := checkpoint.NewDir(*checkpointDir)
		if derr != nil {
			fatal(derr)
		}
		store = ds
	}
	var faults *mcb.FaultPlan
	if cuts := pf.Outages(); len(cuts) > 0 {
		faults = &mcb.FaultPlan{Outages: cuts}
	}
	retry := mcb.RetryPolicy{
		MaxAttempts:     *retries,
		Backoff:         250 * time.Millisecond,
		JitterSeed:      *seed ^ uint64(spec.Hi),
		DegradeOnOutage: *degradeOutage,
	}

	start := time.Now()
	switch *op {
	case "sort":
		opts := core.SortOptions{
			K: pf.K, Algorithm: algorithm, StallTimeout: *timeout,
			Faults: faults, Retry: retry,
			Checkpoints: store, Resume: *resume,
			Transport: cl, Ctx: ctx,
		}
		if *asc {
			opts.Order = core.Ascending
		}
		outputs, rep, err := core.SortWithRetry(inputs, opts)
		if err != nil {
			fatal(err)
		}
		emitSort(pf, spec, *n, *seed, outputs, rep, time.Since(start), *jsonOut, *verbose)
	case "select":
		rank := *d
		if rank == 0 {
			rank = (*n + 1) / 2
		}
		opts := core.SelectOptions{
			K: pf.K, D: rank, StallTimeout: *timeout,
			Faults: faults, Retry: retry,
			Checkpoints: store, Resume: *resume,
			Transport: cl, Ctx: ctx,
		}
		val, rep, err := core.SelectWithRetry(inputs, opts)
		if err != nil {
			fatal(err)
		}
		emitSelect(pf, *n, *seed, rank, val, rep, time.Since(start), *jsonOut)
	default:
		fatal(fmt.Errorf("unknown -op %q: want sort or select", *op))
	}
}

func emitSort(pf *tcp.PeerFile, spec *tcp.PeerSpec, n int, seed uint64, outputs [][]int64, rep *core.Report, wall time.Duration, jsonOut, verbose bool) {
	if jsonOut {
		jr := mcb.NewReport(mcb.Config{P: pf.P, K: pf.K}, &rep.Stats)
		jr.Recovery = rep.Recovery
		jr.Extra = map[string]any{
			"op":        "sort",
			"n":         n,
			"algorithm": rep.Algorithm.String(),
			"seed":      seed,
			"job":       pf.Job,
			"peer":      spec.Name,
			"wall_ms":   wall.Milliseconds(),
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
	fmt.Printf("peer %s: sorted n=%d on MCB(p=%d, k=%d) with %s\n", spec.Name, n, pf.P, pf.K, rep.Algorithm)
	fmt.Printf("cycles:   %d\nmessages: %d\n", rep.Stats.Cycles, rep.Stats.Messages)
	if rep.Attempts > 1 || rep.Resumes > 0 {
		fmt.Printf("recovery: %d attempt(s), %d resume(s) from checkpoint %q\n",
			rep.Attempts, rep.Resumes, rep.CheckpointPhase)
	}
	if rep.DegradedK > 0 {
		fmt.Printf("degraded: finished on k'=%d channels after losing %v\n", rep.DegradedK, rep.DeadChannels)
	}
	if verbose {
		fmt.Println("per-processor boundaries (first, last):")
		for i, out := range outputs {
			fmt.Printf("  P%-3d n_i=%-6d [%d .. %d]\n", i+1, len(out), out[0], out[len(out)-1])
		}
	}
}

func emitSelect(pf *tcp.PeerFile, n int, seed uint64, rank int, val int64, rep *core.SelectReport, wall time.Duration, jsonOut bool) {
	if jsonOut {
		jr := mcb.NewReport(mcb.Config{P: pf.P, K: pf.K}, &rep.Stats)
		jr.Recovery = rep.Recovery
		jr.Extra = map[string]any{
			"op":      "select",
			"n":       n,
			"d":       rank,
			"value":   val,
			"seed":    seed,
			"job":     pf.Job,
			"wall_ms": wall.Milliseconds(),
		}
		if err := jr.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("selected rank %d of n=%d on MCB(p=%d, k=%d): %d\n", rank, n, pf.P, pf.K, val)
	fmt.Printf("cycles:   %d\nmessages: %d\n", rep.Stats.Cycles, rep.Stats.Messages)
	if rep.Attempts > 1 || rep.Resumes > 0 {
		fmt.Printf("recovery: %d attempt(s), %d resume(s) from checkpoint %q\n",
			rep.Attempts, rep.Resumes, rep.CheckpointPhase)
	}
	if rep.DegradedK > 0 {
		fmt.Printf("degraded: finished on k'=%d channels after losing %v\n", rep.DegradedK, rep.DeadChannels)
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
	fmt.Fprintln(os.Stderr, "mcbpeer:", err)
	os.Exit(1)
}
