// Command mcbbench regenerates the paper's evaluation artifacts: one table
// (or figure) per experiment E1..E13 as indexed in DESIGN.md.
//
// Usage:
//
//	mcbbench            # run everything (full sweeps)
//	mcbbench -quick     # smaller sweeps
//	mcbbench -exp E3    # one experiment
//	mcbbench -list      # list experiments and their claims
//	mcbbench -json      # emit results as JSON instead of text tables
//
// Engine microbenchmark mode (perf trajectory, see BENCH_engine.json):
//
//	mcbbench -engine                                  # print the sweep as JSON
//	mcbbench -engine -out BENCH_engine.json           # write the artifact
//	mcbbench -engine -baseline BENCH_engine.json \
//	         -out BENCH_engine.json                   # keep previous numbers as baseline
//
// CI regression gate: compare a fresh sweep against the committed artifact
// and fail (exit 2) when throughput or allocations regressed beyond the
// threshold, each (workload, p, k) configuration gated against its baseline
// entry. A baseline generated in a different environment (go version,
// GOMAXPROCS, CPU count) is refused with the mismatched fields named; pass
// -allow-env-mismatch to skip the comparison (with the reason printed)
// instead of failing:
//
//	mcbbench -engine -compare BENCH_engine.json -threshold 0.20 \
//	         -out BENCH_engine.fresh.json
//	mcbbench -engine -compare BENCH_engine.json -allow-env-mismatch  # CI runners
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mcbnet/internal/experiments"
	"mcbnet/internal/mcb"
	"mcbnet/internal/stats"
)

// jsonTable and jsonExperiment are the -json output schema: the experiment
// id and claim plus each table's title, headers and formatted rows.
type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

type jsonExperiment struct {
	ID     string      `json:"id"`
	Claim  string      `json:"claim"`
	Tables []jsonTable `json:"tables"`
}

// engineBenchFile is the on-disk schema of BENCH_engine.json: the engine
// microbenchmark sweep of this build (Entries) plus, optionally, the numbers
// of the previous build (Baseline) so the perf trajectory stays reviewable.
// The embedded mcb.BenchEnv fields (go/gomaxprocs/num_cpu) record the
// provenance a later -compare is checked against.
type engineBenchFile struct {
	Schema string `json:"schema"`
	mcb.BenchEnv
	GeneratedAt string                 `json:"generated_at"`
	Entries     []mcb.EngineBenchEntry `json:"entries"`
	Baseline    []mcb.EngineBenchEntry `json:"baseline,omitempty"`
}

// errRegression marks a failed -compare gate (exit code 2, distinguishing a
// perf regression from an operational error).
var errRegression = fmt.Errorf("engine benchmark regression")

// loadEngineBench reads a previous BENCH_engine.json: its entries and its
// recorded provenance.
func loadEngineBench(path string) ([]mcb.EngineBenchEntry, mcb.BenchEnv, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, mcb.BenchEnv{}, fmt.Errorf("read baseline: %w", err)
	}
	var prev engineBenchFile
	if err := json.Unmarshal(b, &prev); err != nil {
		return nil, mcb.BenchEnv{}, fmt.Errorf("parse baseline: %w", err)
	}
	return prev.Entries, prev.BenchEnv, nil
}

// runEngineBench executes the engine microbenchmark sweep over sizes (nil =
// the default grid) and writes the JSON artifact to outPath ("" = stdout).
// baselinePath, when set, names a previous artifact whose entries are carried
// over as the baseline. comparePath, when set, names the artifact the fresh
// sweep is regression-checked against with the given relative threshold;
// regressions are reported on stderr and returned as errRegression.
//
// A comparison is only meaningful between sweeps of the same environment:
// if the baseline's recorded go version, GOMAXPROCS or CPU count differ from
// the runner's, the gate refuses (naming the mismatched fields) — or, with
// allowEnvMismatch, explicitly skips the comparison with the same named
// reasons and passes.
func runEngineBench(outPath, baselinePath, comparePath string, threshold float64, cycles int64, allowEnvMismatch bool, sizes []int) error {
	var baseline []mcb.EngineBenchEntry
	if baselinePath != "" {
		var err error
		if baseline, _, err = loadEngineBench(baselinePath); err != nil {
			return err
		}
	}
	entries, err := mcb.EngineBenchSweep(sizes, cycles)
	if err != nil {
		return err
	}
	compareSkipped := false
	var regressions []string
	if comparePath != "" {
		gate, gateEnv, err := loadEngineBench(comparePath)
		if err != nil {
			return err
		}
		if mismatches := mcb.CurrentBenchEnv().Mismatch(gateEnv); len(mismatches) > 0 {
			for _, m := range mismatches {
				fmt.Fprintln(os.Stderr, "mcbbench: baseline environment mismatch:", m)
			}
			if !allowEnvMismatch {
				return fmt.Errorf("baseline %s was generated in a different environment (%d field(s) differ, listed above); "+
					"regenerate it on this runner or pass -allow-env-mismatch to skip the comparison",
					comparePath, len(mismatches))
			}
			fmt.Fprintf(os.Stderr, "mcbbench: SKIPPING regression gate against %s: environment mismatch allowed by -allow-env-mismatch\n", comparePath)
			compareSkipped = true
		} else {
			regressions = mcb.CompareEngineBench(entries, gate, threshold)
		}
	}
	out := engineBenchFile{
		Schema:      "mcbnet/engine-bench/v1",
		BenchEnv:    mcb.CurrentBenchEnv(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Entries:     entries,
		Baseline:    baseline,
	}
	b, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if outPath == "" {
		if _, err := os.Stdout.Write(b); err != nil {
			return err
		}
	} else if err := os.WriteFile(outPath, b, 0o644); err != nil {
		return err
	}
	if comparePath != "" && !compareSkipped {
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "mcbbench: REGRESSION:", r)
			}
			return errRegression
		}
		fmt.Fprintf(os.Stderr, "mcbbench: regression gate passed (%d configurations within ±%.0f%% of %s)\n",
			len(entries), 100*threshold, comparePath)
	}
	return nil
}

func main() {
	exp := flag.String("exp", "", "run a single experiment id (e.g. E3); empty = all")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	list := flag.Bool("list", false, "list experiments")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of text tables")
	engine := flag.Bool("engine", false, "run the engine microbenchmark sweep instead of the experiments")
	out := flag.String("out", "", "with -engine: write the JSON artifact to this file (default stdout)")
	baseline := flag.String("baseline", "", "with -engine: carry the entries of this previous artifact over as baseline")
	engineCycles := flag.Int64("engine-cycles", 0, "with -engine: cycles per configuration (0 = per-size default)")
	compare := flag.String("compare", "", "with -engine: regression-gate the sweep against this artifact (exit 2 on regression)")
	threshold := flag.Float64("threshold", 0.20, "with -engine -compare: relative regression threshold")
	allowEnvMismatch := flag.Bool("allow-env-mismatch", false,
		"with -engine -compare: on go/gomaxprocs/num_cpu provenance mismatch, warn and skip the comparison instead of failing")
	engineSizes := flag.String("engine-sizes", "", "with -engine: comma-separated processor counts (empty = default grid)")
	cpuProfile := flag.String("cpuprofile", "", "with -engine: write a pprof CPU profile of the sweep to this file")
	flag.Parse()

	if *engine {
		sizes, err := parseEngineSizes(*engineSizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcbbench:", err)
			os.Exit(1)
		}
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mcbbench:", err)
				os.Exit(1)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mcbbench:", err)
				os.Exit(1)
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
		if err := runEngineBench(*out, *baseline, *compare, *threshold, *engineCycles, *allowEnvMismatch, sizes); err != nil {
			if *cpuProfile != "" {
				pprof.StopCPUProfile()
			}
			if err == errRegression {
				os.Exit(2)
			}
			fmt.Fprintln(os.Stderr, "mcbbench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Claim)
		}
		return
	}

	var collected []jsonExperiment
	run := func(e experiments.Experiment) {
		if *jsonOut {
			collected = append(collected, jsonExperiment{
				ID: e.ID, Claim: e.Claim, Tables: toJSONTables(e.Run(*quick)),
			})
			return
		}
		fmt.Printf("### %s — %s\n\n", e.ID, e.Claim)
		start := time.Now()
		for _, tb := range e.Run(*quick) {
			fmt.Println(tb.String())
		}
		fmt.Printf("(%s took %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp != "" {
		e, ok := experiments.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "mcbbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(1)
		}
		run(e)
	} else {
		for _, e := range experiments.All() {
			run(e)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			fmt.Fprintln(os.Stderr, "mcbbench:", err)
			os.Exit(1)
		}
	}
}

// parseEngineSizes parses the -engine-sizes flag value.
func parseEngineSizes(engineSizes string) ([]int, error) {
	var sizes []int
	if engineSizes != "" {
		for _, s := range strings.Split(engineSizes, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p < 1 {
				return nil, fmt.Errorf("invalid processor count %q in -engine-sizes", s)
			}
			sizes = append(sizes, p)
		}
	}
	return sizes, nil
}

func toJSONTables(tbs []*stats.Table) []jsonTable {
	out := make([]jsonTable, len(tbs))
	for i, tb := range tbs {
		out[i] = jsonTable{Title: tb.Title, Headers: tb.Headers, Rows: tb.Rows}
	}
	return out
}
