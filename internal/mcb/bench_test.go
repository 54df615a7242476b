package mcb

import (
	"fmt"
	"testing"
	"time"
)

// Engine microbenchmarks. One benchmark iteration is one engine cycle, so
// ns/op is the per-cycle cost and allocs/op the per-cycle heap pressure; the
// explicit cycles/sec metric is the headline number recorded in
// BENCH_engine.json (see cmd/mcbbench -engine, which runs the same workloads
// via EngineBench).

func benchConfig(p, k int) Config {
	return Config{P: p, K: k, StallTimeout: 5 * time.Minute}
}

// benchSizes spans p within a small factor of the core count up to the
// p >> cores regime (the full p=65536 sweep lives in cmd/mcbbench -engine);
// the race-mode CI smoke runs these at -benchtime=25x.
var benchSizes = []int{4, 16, 64, 256, 4096}

func benchK(p int) int {
	if p < 4 {
		return 1
	}
	return p / 4
}

// runCycles executes one engine run of exactly n cycles under prog and
// reports throughput metrics for it.
func runCycles(b *testing.B, cfg Config, prog func(Node), n int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	res, err := RunUniform(cfg, prog)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Stats.Cycles != int64(n) {
		b.Fatalf("ran %d cycles, want %d", res.Stats.Cycles, n)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(n)/sec, "cycles/sec")
	}
}

// BenchmarkBarrierRoundTrip measures the bare cycle barrier: every processor
// idles, so a cycle is one arrive/resolve/release round-trip with no channel
// traffic.
func BenchmarkBarrierRoundTrip(b *testing.B) {
	for _, p := range benchSizes {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			n := b.N
			runCycles(b, benchConfig(p, benchK(p)), func(pr Node) {
				pr.IdleN(n)
			}, n)
		})
	}
}

// engineCycleProgram is the standard traffic workload: processors 0..k-1
// write (and read back) their own channel every cycle, the rest read.
func engineCycleProgram(k, n int) func(Node) {
	return func(pr Node) {
		id := pr.ID()
		if id < k {
			m := MsgX(1, int64(id))
			for i := 0; i < n; i++ {
				pr.WriteRead(id, m, id)
			}
			return
		}
		c := id % k
		for i := 0; i < n; i++ {
			pr.Read(c)
		}
	}
}

// BenchmarkEngineCycle measures a full write/read traffic cycle on the
// default (no-fault, no-recorder) fold/merge path.
func BenchmarkEngineCycle(b *testing.B) {
	for _, p := range benchSizes {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			k := benchK(p)
			runCycles(b, benchConfig(p, k), engineCycleProgram(k, b.N), b.N)
		})
	}
}

// BenchmarkEngineCycleGeneral runs the same traffic workload with a fault
// plan that never fires inside the run (a far-future outage), forcing the
// general resolve path so the fast-path gain stays measurable.
func BenchmarkEngineCycleGeneral(b *testing.B) {
	for _, p := range benchSizes {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			k := benchK(p)
			cfg := benchConfig(p, k)
			cfg.Faults = &FaultPlan{Outages: []Outage{{Ch: 0, From: 1 << 60, To: 1<<60 + 1}}}
			runCycles(b, cfg, engineCycleProgram(k, b.N), b.N)
		})
	}
}

// TestBenchEnvMismatch pins the provenance check of the bench-gate: every
// differing field is reported by name, and matching environments report
// nothing.
func TestBenchEnvMismatch(t *testing.T) {
	cur := CurrentBenchEnv()
	if cur.GoVersion == "" || cur.GOMAXPROCS < 1 || cur.NumCPU < 1 {
		t.Fatalf("CurrentBenchEnv incomplete: %+v", cur)
	}
	if m := cur.Mismatch(cur); len(m) != 0 {
		t.Fatalf("identical environments mismatch: %v", m)
	}
	base := BenchEnv{GoVersion: "go0.0", GOMAXPROCS: cur.GOMAXPROCS + 1, NumCPU: cur.NumCPU + 7}
	m := cur.Mismatch(base)
	if len(m) != 3 {
		t.Fatalf("got %d mismatches (%v), want 3", len(m), m)
	}
	for i, field := range []string{"go:", "gomaxprocs:", "num_cpu:"} {
		if len(m[i]) < len(field) || m[i][:len(field)] != field {
			t.Errorf("mismatch %d = %q, want it to name field %q", i, m[i], field)
		}
	}
	// A pre-provenance artifact (zero env) mismatches on every field.
	if m := cur.Mismatch(BenchEnv{}); len(m) != 3 {
		t.Fatalf("zero-provenance baseline yielded %d mismatches (%v), want 3", len(m), m)
	}
}

// TestCompareEngineBench: entries gate against the baseline entry of the
// same (workload, p, k); a throughput drop or an allocation rise beyond the
// threshold fires, drift within it and unmatched entries do not.
func TestCompareEngineBench(t *testing.T) {
	baseline := []EngineBenchEntry{
		{Name: BenchBarrier, P: 4, K: 1, CyclesPerSec: 1e6},
		{Name: BenchSparse, P: 4, K: 1, CyclesPerSec: 1e5},
	}
	fresh := []EngineBenchEntry{
		{Name: BenchBarrier, P: 4, K: 1, CyclesPerSec: 0.9e6},
		{Name: BenchSparse, P: 4, K: 1, CyclesPerSec: 1.1e5},
		{Name: BenchWriteRead, P: 4, K: 1, CyclesPerSec: 1}, // no baseline entry
	}
	if regs := CompareEngineBench(fresh, baseline, 0.2); len(regs) != 0 {
		t.Fatalf("drift within the threshold fired: %v", regs)
	}
	fresh[1].CyclesPerSec = 1e4
	fresh[0].AllocsPerCycle = 1
	regs := CompareEngineBench(fresh, baseline, 0.2)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions (%v), want 2", len(regs), regs)
	}
}

// BenchmarkEnginePhaseMarker measures a cycle that carries a (repeated, so
// coalescing) phase marker each iteration: the marker path must stay cheap.
func BenchmarkEnginePhaseMarker(b *testing.B) {
	const p = 16
	k := benchK(p)
	n := b.N
	runCycles(b, benchConfig(p, k), func(pr Node) {
		id := pr.ID()
		if id < k {
			m := MsgX(1, int64(id))
			for i := 0; i < n; i++ {
				if id == 0 {
					pr.Phase("steady")
				}
				pr.WriteRead(id, m, id)
			}
			return
		}
		c := id % k
		for i := 0; i < n; i++ {
			pr.Read(c)
		}
	}, n)
}
