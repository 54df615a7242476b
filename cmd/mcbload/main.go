// Command mcbload is the oracle-checking load driver for mcbd: it drives a
// declarative workload profile (request mix, arrival process, concurrency,
// phased ramp) against a live daemon, verifies EVERY successful response
// against a sequential oracle, and prints verified requests/sec per
// (phase, op, mode) and the batch win. Latency and regression judgement
// belong to the benchmark (benchmark/, `make bench-ab`).
//
// Usage:
//
//	mcbload -addr http://127.0.0.1:8326 -profile smoke-mixed [-v]
//	mcbload -addr ... -profile service-bench -min-batch-win 2.0 -v
//	mcbload -addr ... -profile-file custom.json -duration-scale 0.25
//	mcbload -list
//
// Exit codes: 0 = run verified (and the batch-win floor held); 1 =
// verification violations (an incorrect answer, unexpected errors, or a
// missing expected rejection); 2 = batch win below -min-batch-win or usage
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mcbnet/internal/service"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8326", "mcbd base URL")
	profileName := flag.String("profile", "smoke-mixed", "builtin profile name (see -list)")
	profileFile := flag.String("profile-file", "", "load the profile from this JSON file instead")
	list := flag.Bool("list", false, "list builtin profiles and exit")
	durationScale := flag.Float64("duration-scale", 1, "multiply every phase duration (CI smoke shrinks profiles)")
	waitReady := flag.Duration("wait-ready", 10*time.Second, "poll /v1/healthz this long before starting")
	minBatchWin := flag.Float64("min-batch-win", 0, "fail (exit 2) unless batched/unbatched rps ratio reaches this")
	verbose := flag.Bool("v", false, "print per-phase progress")
	flag.Parse()

	if *list {
		for _, name := range service.BuiltinProfileNames() {
			p, _ := service.BuiltinProfile(name)
			fmt.Printf("%-14s %d phase(s), dist=%s\n", name, len(p.Phases), distName(p.Dist))
			if p.Notes != "" {
				fmt.Printf("               %s\n", p.Notes)
			}
		}
		return
	}

	profile, err := loadProfile(*profileName, *profileFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbload:", err)
		os.Exit(2)
	}
	if err := service.WaitReady(*addr, *waitReady); err != nil {
		fmt.Fprintln(os.Stderr, "mcbload:", err)
		os.Exit(2)
	}

	opts := service.LoadOptions{Addr: *addr, DurationScale: *durationScale}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	report, violations, err := service.RunProfile(profile, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbload:", err)
		os.Exit(2)
	}
	if report.BatchWin != nil {
		fmt.Printf("mcbload: batch win %.2fx (unbatched %.1f rps -> batched %.1f rps)\n",
			report.BatchWin.Ratio, report.BatchWin.UnbatchedRPS, report.BatchWin.BatchedRPS)
	}

	gateFailures := gate(report, *minBatchWin)

	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "mcbload: VIOLATION:", v)
	}
	for _, g := range gateFailures {
		fmt.Fprintln(os.Stderr, "mcbload: GATE:", g)
	}
	switch {
	case len(gateFailures) > 0:
		os.Exit(2)
	case len(violations) > 0:
		os.Exit(1)
	}
	fmt.Printf("mcbload: profile %s verified: every response matched the oracle\n", profile.Name)
}

// gate applies the -min-batch-win assertion and returns one line per
// failure.
func gate(report *service.BenchReport, minBatchWin float64) []string {
	switch {
	case minBatchWin <= 0:
		return nil
	case report.BatchWin == nil:
		return []string{fmt.Sprintf("-min-batch-win %.2f set but the profile produced no batched/unbatched topk pair", minBatchWin)}
	case report.BatchWin.Ratio < minBatchWin:
		return []string{fmt.Sprintf("batch win %.2fx below required %.2fx", report.BatchWin.Ratio, minBatchWin)}
	}
	return nil
}

func loadProfile(name, file string) (service.Profile, error) {
	if file == "" {
		return service.BuiltinProfile(name)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return service.Profile{}, err
	}
	var p service.Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return service.Profile{}, fmt.Errorf("%s: %w", file, err)
	}
	return p, p.Validate()
}

func distName(d string) string {
	if d == "" {
		return "uniform"
	}
	return d
}
