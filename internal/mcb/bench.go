package mcb

import (
	"fmt"
	"runtime"
	"time"
)

// This file is the engine's self-measurement harness: the same microbenchmark
// workloads as bench_test.go, but runnable from a CLI (`mcbbench -engine`) so
// the repository can record a perf trajectory (BENCH_engine.json) that future
// PRs regress-check against. Throughput is measured directly; the per-cycle
// allocation figure is the *marginal* cost between a short and a long run of
// the same workload, so one-time setup (engine, goroutines, Proc handles)
// cancels out and steady-state cycles are measured alone.

// Engine benchmark workload names, accepted by EngineBench.
const (
	// BenchBarrier measures the bare cycle barrier: every processor idles,
	// so a cycle is one arrive/resolve/release round-trip with no traffic.
	BenchBarrier = "barrier"
	// BenchWriteRead measures a full traffic cycle: processors 0..k-1 each
	// write (and read back) their own channel, the rest read.
	BenchWriteRead = "writeread"
	// BenchSparse measures the selection-phase shape: one processor is active
	// per cycle (writing and reading back channel 0) while the other p-1 sit
	// in long IdleN batches, with the writer role rotating between segments.
	// The engine's active-list skip makes a cycle cost O(active), so this
	// workload's throughput should be nearly independent of p.
	BenchSparse = "sparse"
)

// sparseSegLen is the BenchSparse segment length: how many consecutive cycles
// one processor stays the sole writer while the rest idle through a single
// IdleN batch of the same length.
const sparseSegLen = 256

// EngineBenchEntry is one measured engine microbenchmark configuration, in
// the stable schema recorded in BENCH_engine.json.
type EngineBenchEntry struct {
	Name           string  `json:"name"` // BenchBarrier, BenchWriteRead or BenchSparse
	P              int     `json:"p"`
	K              int     `json:"k"`
	Cycles         int64   `json:"cycles"`           // cycles in the timed run
	NsPerCycle     float64 `json:"ns_per_cycle"`     // wall time per cycle
	CyclesPerSec   float64 `json:"cycles_per_sec"`   // throughput
	AllocsPerCycle float64 `json:"allocs_per_cycle"` // marginal heap allocations per cycle
}

// BenchEnv is the provenance of a benchmark artifact: the runner properties
// that make throughput numbers comparable. Two sweeps measured under
// different Go versions, GOMAXPROCS or core counts are different experiments
// — gating one against the other yields nonsense in both directions (a
// single-core baseline makes any multi-core run look like a huge win, and
// vice versa), which is why CompareEngineBench consumers must check
// Mismatch first.
type BenchEnv struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CurrentBenchEnv captures the provenance of the running process.
func CurrentBenchEnv() BenchEnv {
	return BenchEnv{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Mismatch compares this (runner) environment against a baseline's recorded
// provenance and returns one human-readable line per differing field, naming
// the field and both values. Empty means the environments match and a
// benchmark comparison is meaningful. A baseline with no recorded provenance
// (all zero values, pre-provenance artifacts) mismatches on every field.
func (e BenchEnv) Mismatch(base BenchEnv) []string {
	var out []string
	if e.GoVersion != base.GoVersion {
		out = append(out, fmt.Sprintf("go: runner %q vs baseline %q", e.GoVersion, base.GoVersion))
	}
	if e.GOMAXPROCS != base.GOMAXPROCS {
		out = append(out, fmt.Sprintf("gomaxprocs: runner %d vs baseline %d", e.GOMAXPROCS, base.GOMAXPROCS))
	}
	if e.NumCPU != base.NumCPU {
		out = append(out, fmt.Sprintf("num_cpu: runner %d vs baseline %d", e.NumCPU, base.NumCPU))
	}
	return out
}

// engineBenchProgram returns the uniform processor program for one workload:
// every processor participates in exactly cycles cycles.
func engineBenchProgram(name string, k int, cycles int64) (func(Node), error) {
	switch name {
	case BenchBarrier:
		return func(pr Node) {
			pr.IdleN(int(cycles))
		}, nil
	case BenchWriteRead:
		return func(pr Node) {
			id := pr.ID()
			if id < k {
				m := MsgX(1, int64(id))
				for i := int64(0); i < cycles; i++ {
					pr.WriteRead(id, m, id)
				}
				return
			}
			c := id % k
			for i := int64(0); i < cycles; i++ {
				pr.Read(c)
			}
		}, nil
	case BenchSparse:
		return func(pr Node) {
			id, p := pr.ID(), pr.P()
			var done int64
			for seg := 0; done < cycles; seg++ {
				n := cycles - done
				if n > sparseSegLen {
					n = sparseSegLen
				}
				if seg%p == id {
					m := MsgX(1, int64(id))
					for i := int64(0); i < n; i++ {
						pr.WriteRead(0, m, 0)
					}
				} else {
					pr.IdleN(int(n))
				}
				done += n
			}
		}, nil
	default:
		return nil, fmt.Errorf("mcb: unknown engine benchmark %q", name)
	}
}

// EngineBench runs one engine microbenchmark workload on an MCB(p, k) engine
// for the given number of cycles and returns the measured entry. It runs the
// workload twice (full length and half length) to separate steady-state
// per-cycle allocations from run setup.
func EngineBench(name string, p, k int, cycles int64) (EngineBenchEntry, error) {
	if cycles < 4 {
		cycles = 4
	}
	run := func(n int64) (time.Duration, uint64, error) {
		prog, err := engineBenchProgram(name, k, n)
		if err != nil {
			return 0, 0, err
		}
		cfg := Config{P: p, K: k, StallTimeout: 5 * time.Minute}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err := RunUniform(cfg, prog)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, err
		}
		if res.Stats.Cycles != n {
			return 0, 0, fmt.Errorf("mcb: benchmark ran %d cycles, want %d", res.Stats.Cycles, n)
		}
		return elapsed, m1.Mallocs - m0.Mallocs, nil
	}
	// Warm up once (scheduler, allocator) before the timed run.
	if _, _, err := run(cycles / 4); err != nil {
		return EngineBenchEntry{}, err
	}
	elapsed, allocsFull, err := run(cycles)
	if err != nil {
		return EngineBenchEntry{}, err
	}
	half := cycles / 2
	_, allocsHalf, err := run(half)
	if err != nil {
		return EngineBenchEntry{}, err
	}
	perCycle := (float64(allocsFull) - float64(allocsHalf)) / float64(cycles-half)
	if perCycle < 0 {
		perCycle = 0
	}
	ns := float64(elapsed.Nanoseconds()) / float64(cycles)
	e := EngineBenchEntry{
		Name:           name,
		P:              p,
		K:              k,
		Cycles:         cycles,
		NsPerCycle:     ns,
		AllocsPerCycle: perCycle,
	}
	if elapsed > 0 {
		e.CyclesPerSec = float64(cycles) / elapsed.Seconds()
	}
	return e, nil
}

// CompareEngineBench compares a fresh engine-benchmark sweep against a
// baseline (the committed BENCH_engine.json) and returns one human-readable
// line per regression: a configuration whose throughput fell below
// (1-threshold) of the baseline, or whose per-cycle allocation count grew
// beyond the baseline by more than the threshold plus a 0.05 absolute fudge
// (the measured figure is ~0, so a pure ratio would trip on noise).
// Configurations present in only one of the two sweeps are ignored. An
// empty result means the gate passes.
func CompareEngineBench(fresh, baseline []EngineBenchEntry, threshold float64) []string {
	key := func(e *EngineBenchEntry) string {
		return fmt.Sprintf("%s/p=%d/k=%d", e.Name, e.P, e.K)
	}
	base := make(map[string]*EngineBenchEntry, len(baseline))
	for i := range baseline {
		base[key(&baseline[i])] = &baseline[i]
	}
	var regressions []string
	for i := range fresh {
		f := &fresh[i]
		b, ok := base[key(f)]
		if !ok {
			continue
		}
		if b.CyclesPerSec > 0 && f.CyclesPerSec < b.CyclesPerSec*(1-threshold) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: cycles/sec %.0f -> %.0f (%.1f%% drop, limit %.0f%%)",
				key(f), b.CyclesPerSec, f.CyclesPerSec,
				100*(1-f.CyclesPerSec/b.CyclesPerSec), 100*threshold))
		}
		if f.AllocsPerCycle > b.AllocsPerCycle*(1+threshold)+0.05 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/cycle %.4f -> %.4f (limit %.4f)",
				key(f), b.AllocsPerCycle, f.AllocsPerCycle,
				b.AllocsPerCycle*(1+threshold)+0.05))
		}
	}
	return regressions
}

// engineSweepSizes is the default processor grid of every workload, from
// p=4 up to the p >> cores regime at p=65536.
var engineSweepSizes = []int{4, 16, 64, 256, 1024, 4096, 16384, 65536}

// engineSweepCycles picks the per-size default cycle count: the historical
// 262144/p (floor 2048) for the small sizes the trajectory was recorded at,
// relaxed to a floor of 64 for the large-p extension so the full sweep stays
// in CI-friendly time even at millisecond cycles.
func engineSweepCycles(p int) int64 {
	n := 262144 / int64(p)
	switch {
	case p <= 256:
		if n < 2048 {
			n = 2048
		}
	default:
		if n < 64 {
			n = 64
		}
	}
	return n
}

// EngineBenchSweep runs the standard engine benchmark grid: every workload
// over p in ps with k = max(1, p/4). ps nil picks engineSweepSizes; cycles
// <= 0 picks a per-size default that keeps the sweep under a few tens of
// seconds.
func EngineBenchSweep(ps []int, cycles int64) ([]EngineBenchEntry, error) {
	if len(ps) == 0 {
		ps = engineSweepSizes
	}
	var out []EngineBenchEntry
	for _, name := range []string{BenchBarrier, BenchWriteRead, BenchSparse} {
		for _, p := range ps {
			k := p / 4
			if k < 1 {
				k = 1
			}
			n := cycles
			if n <= 0 {
				n = engineSweepCycles(p)
			}
			e, err := EngineBench(name, p, k, n)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	return out, nil
}
