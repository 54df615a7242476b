// Command benchmark is mcbnet's end-to-end and per-layer benchmark. It runs
// four workloads — two HTTP traffic mixes against the sort/select service,
// the sharded-engine library path, and a TCP peer group — each in fresh
// child processes, checks every answer against an oracle, and prints every
// metric by name and unit.
//
// Usage (from the repository root; run.sh builds into .bench_build/):
//
//	bash benchmark/run.sh                                  # every workload, untraced
//	bash benchmark/run.sh --workload svc-small --seed 3    # one workload
//	bash benchmark/run.sh --workload lib-sharded --trace 1 # per-layer ledger
//	bash benchmark/run.sh -compare A.jsonl B.jsonl         # two sets of runs
//
// With --workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// untraced, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, rc runConfig) (*childResult, error)
	// setups is how many fresh processes set the system up in one untraced
	// run; setup_s is their median. The service's first engine run varies
	// from 7 to 17 ms between processes, so its cheap set-up is sampled
	// more often than the seconds-long set-up of the job workloads.
	setups int
}

var workloads = []workload{
	{"svc-small", "HTTP/JSON, admission and the 2 ms batch window are most of each tiny top-k/rank request; window and HTTP changes show here", runSvcSmall, 15},
	{"svc-mixed", "all five ops at n=256 plus faulted sorts: the goroutine engine and core.RunBatch dominate, and the slowest job sets each batch's time", runSvcMixed, 15},
	{"lib-sharded", "checkpointed sort and median at p=1024 in process: the sharded engine, seq compute, verification and checkpoint saves, with no HTTP or pool", runLibSharded, 3},
	{"peer-tcp", "a sequencer and two TCP peers on loopback: every cycle is a frame round trip, plus boundary exchanges and phase resync", runPeerTCP, 3},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is what one child process measures.
type runConfig struct {
	seed      uint64
	seconds   float64 // measuring time, set-up excluded
	scale     float64 // multiplies input sizes and phase lengths (smoke tests)
	traced    bool
	setupOnly bool // build the system, finish the first operation, tear down
}

// childResult is what one child process reports on its last output line.
type childResult struct {
	SetupS  float64        `json:"setup_s"`
	Metrics metricSet      `json:"metrics"`
	Counts  counts         `json:"counts"`
	Samples map[string]int `json:"samples"`
	Invalid []string       `json:"invalid,omitempty"`
	// Cols and ColLen are the Columnsort shape of the first sort, for the
	// schedule-build timing (0 when the workload's sorts are not visible).
	Cols   int `json:"cols,omitempty"`
	ColLen int `json:"col_len,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	wl := fs.String("workload", "", "run one workload (default: all of them, one after another)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time of one run, set-up excluded")
	traceFlag := fs.Int("trace", 0, "1: a traced run that reports the per-layer metrics")
	scale := fs.Float64("scale", 1, "multiply phase lengths and the job workloads' input sizes (smoke runs)")
	out := fs.String("out", "", "append each run record to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two JSON-lines files of run records: -compare A B")
	child := fs.String("child", "", "internal: run as a child process (setup, run or schedule)")
	cols := fs.Int("cols", 0, "internal: schedule child's column count")
	colLen := fs.Int("col-len", 0, "internal: schedule child's column length")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two files of run records")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -scale must be positive")
		return 2
	}
	ctx := context.Background()
	if *child != "" {
		return runAsChild(ctx, *child, *wl, runConfig{
			seed: *seed, seconds: *seconds, scale: *scale, traced: *traceFlag == 1,
		}, *cols, *colLen)
	}

	selected := workloads
	if *wl != "" {
		w := findWorkload(*wl)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *wl)
			return 2
		}
		selected = []workload{*w}
	}
	status := 0
	for _, w := range selected {
		rec, err := measure(ctx, w, *seed, *seconds, *scale, *traceFlag == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printRecord(rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		if *wl != "" {
			line, err := json.Marshal(resultLine{
				Correct:   rec.Correct,
				Attempted: rec.Counts.Attempted,
				Failed:    rec.Counts.failed(),
				Metrics:   rec.Metrics,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			fmt.Println(string(line))
		}
		if !rec.Correct {
			status = 1
		}
	}
	return status
}

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 26

// resultLine is the last line of a single-workload run.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runAsChild runs one workload (or the schedule timing) in this process and
// prints its childResult as the last line of standard output.
func runAsChild(ctx context.Context, role, wl string, rc runConfig, cols, colLen int) int {
	var res *childResult
	var err error
	switch role {
	case "schedule":
		res, err = timeScheduleBuild(cols, colLen)
	case "setup", "run":
		w := findWorkload(wl)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", wl)
			return 2
		}
		rc.setupOnly = role == "setup"
		res, err = w.run(ctx, rc)
		if err == nil {
			res.Metrics.set("rss_peak_mb", peakRSSMB())
		}
	default:
		err = fmt.Errorf("unknown child role %q", role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child %s %s: %v\n", role, wl, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// phaseDur is a share of the run's measuring time, scaled.
func phaseDur(rc runConfig, share float64) time.Duration {
	return time.Duration(rc.seconds * share * rc.scale * float64(time.Second))
}

func init() {
	// Load and service share this process; use every CPU, as a deployed
	// service would.
	runtime.GOMAXPROCS(runtime.NumCPU())
}
