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
// Engine microbenchmark mode (a diagnostic sweep, see BENCH_engine.json):
//
//	mcbbench -engine                                  # print the sweep as JSON
//	mcbbench -engine -out BENCH_engine.json           # write the snapshot
//	mcbbench -engine -engine-sizes 16384 -cpuprofile engine_cpu.pprof -out /dev/null
//
// Performance regressions are judged by `make bench-ab`, a same-runner A/B
// of the benchmark in benchmark/, not by this sweep.
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
// microbenchmark sweep of this build, with the provenance (go version,
// GOMAXPROCS, CPU count) of the machine that measured it.
type engineBenchFile struct {
	Schema string `json:"schema"`
	mcb.BenchEnv
	GeneratedAt string                 `json:"generated_at"`
	Entries     []mcb.EngineBenchEntry `json:"entries"`
}

// runEngineBench executes the engine microbenchmark sweep over sizes (nil =
// the default grid) and writes the JSON snapshot to outPath ("" = stdout).
func runEngineBench(outPath string, cycles int64, sizes []int) error {
	entries, err := mcb.EngineBenchSweep(sizes, cycles)
	if err != nil {
		return err
	}
	out := engineBenchFile{
		Schema:      "mcbnet/engine-bench/v1",
		BenchEnv:    mcb.CurrentBenchEnv(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Entries:     entries,
	}
	b, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(outPath, b, 0o644)
}

func main() {
	exp := flag.String("exp", "", "run a single experiment id (e.g. E3); empty = all")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	list := flag.Bool("list", false, "list experiments")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of text tables")
	engine := flag.Bool("engine", false, "run the engine microbenchmark sweep instead of the experiments")
	out := flag.String("out", "", "with -engine: write the JSON snapshot to this file (default stdout)")
	engineCycles := flag.Int64("engine-cycles", 0, "with -engine: cycles per configuration (0 = per-size default)")
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
		if err := runEngineBench(*out, *engineCycles, sizes); err != nil {
			if *cpuProfile != "" {
				pprof.StopCPUProfile()
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
