package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcbnet/internal/service"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // pct sorts a copy
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.99, 5}, {1, 5}} {
		if got := pct(xs, c.q); got != c.want {
			t.Errorf("pct(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("pct reordered its input: %v", xs)
	}
	if got := pct(nil, 0.5); got != 0 {
		t.Errorf("pct of no samples = %v, want 0", got)
	}
}

// TestWindowedP99IgnoresOneStalledWindow: a stall that fills one window's
// tail moves that window's p99, not the median over the windows.
func TestWindowedP99IgnoresOneStalledWindow(t *testing.T) {
	windows := [][]float64{{1, 2, 3}, {1, 2, 90}, {1, 2, 4}}
	if got := windowedP99(windows); got != 4 {
		t.Errorf("windowedP99(%v) = %v, want 4", windows, got)
	}
	if got := windowedP99([][]float64{{5, 1, 7}}); got != 7 {
		t.Errorf("one window: windowedP99 = %v, want its p99 7", got)
	}
}

// TestQuartilesMatchPython pins quartiles and median to the values Python's
// statistics.quantiles(xs, n=4) and statistics.median give, which is how an
// outside check computes a run's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5.5, 1.25, 9, 2, 7}, 1.625, 5.5, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: quartiles %v, %v and median %v; want %v, %v and %v", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.med)
		}
	}
}

// TestOpenLoopTimesFromDueTime stalls every request until the generator has
// issued all of them. A closed loop would deadlock; the open loop keeps its
// schedule, and the first request's latency covers the whole stall although
// it was sent on time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, rate = 20, 500.0 // one request every 2 ms
	var started atomic.Int32
	release := make(chan struct{})
	var once sync.Once
	samples := openLoop(n, rate, func(i int) sample {
		if started.Add(1) == n {
			once.Do(func() { close(release) })
		}
		<-release
		return sample{id: i}
	})
	span := time.Duration(float64(n-1) / rate * float64(time.Second))
	for i, s := range samples {
		if s.id != i {
			t.Fatalf("sample %d holds request %d", i, s.id)
		}
		if s.lat < s.rtt || s.lat-s.rtt > s.lag+time.Millisecond {
			t.Errorf("request %d: latency %v, round trip %v, lateness %v: latency must be round trip plus lateness", i, s.lat, s.rtt, s.lag)
		}
	}
	if samples[0].lat < span*9/10 {
		t.Errorf("first request's latency %v does not cover the %v stall", samples[0].lat, span)
	}
}

func TestClosedLoopKeepsDepthOutstanding(t *testing.T) {
	var inflight, peak atomic.Int32
	samples, elapsed := closedLoop(4, 50*time.Millisecond, func(w, i int) sample {
		now := inflight.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		return sample{id: i}
	})
	if p := peak.Load(); p > 4 {
		t.Errorf("%d calls outstanding, want at most 4", p)
	}
	if len(samples) < 4 || elapsed < 50*time.Millisecond {
		t.Errorf("%d samples in %v", len(samples), elapsed)
	}
	ids := map[int]bool{}
	for _, s := range samples {
		if ids[s.id] {
			t.Errorf("request %d sent twice", s.id)
		}
		ids[s.id] = true
	}
}

func TestOracle(t *testing.T) {
	vals := []int64{7, 3, 9, 3, 1, 8}
	for _, c := range []struct {
		op   string
		req  service.Request
		want []int64
	}{
		{"sort", service.Request{Order: "desc"}, []int64{9, 8, 7, 3, 3, 1}},
		{"sort", service.Request{Order: "asc"}, []int64{1, 3, 3, 7, 8, 9}},
		{"topk", service.Request{K: 2}, []int64{9, 8}},
		{"median", service.Request{}, []int64{7}}, // descending rank ceil(6/2) = 3
		{"rank", service.Request{D: 5}, []int64{3}},
		// Multiselect answers in the order the ranks were asked, not sorted.
		{"multiselect", service.Request{Ds: []int{6, 1, 4}}, []int64{1, 9, 3}},
	} {
		c.req.Values = slices.Clone(vals)
		if got := oracle(c.op, &c.req); !slices.Equal(got, c.want) {
			t.Errorf("oracle(%s %+v) = %v, want %v", c.op, c.req, got, c.want)
		}
		if !slices.Equal(c.req.Values, vals) {
			t.Errorf("oracle(%s) reordered the request's values", c.op)
		}
	}
}

func TestGeneratedCallsAreDeterministicAndValid(t *testing.T) {
	a := svcMixedSpec.calls(5, streamOpen, 10, 2000, false)
	b := svcMixedSpec.calls(5, streamOpen, 10, 2000, false)
	faulted := 0
	for i := range a {
		if string(a[i].body) != string(b[i].body) {
			t.Fatalf("call %d differs between two generations of the same seed", i)
		}
		if a[i].faulted {
			faulted++
		}
		if len(oracle(a[i].op, &a[i].req)) == 0 {
			t.Errorf("call %d (%s) has no expected answer", i, a[i].op)
		}
	}
	if faulted < 5 || faulted > 40 {
		t.Errorf("%d faulted calls in 2000, want about 1%%", faulted)
	}
	for _, c := range svcMixedSpec.calls(5, streamReplay, 0, 100, true) {
		if c.faulted {
			t.Fatal("plainOnly generated a faulted call")
		}
	}
	if c := svcSmallSpec.calls(6, streamOpen, 10, 1, false); string(c[0].body) == string(a[0].body) {
		t.Error("different seeds and specs generated the same request")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name        string
		a, b        []float64
		bound       float64
		lowerBetter bool
		want        string
	}{
		{"same", base, base, 0.10, true, verdictWithin},
		{"slightly slower", base, shift(base, 1.05), 0.10, true, verdictWithin},
		{"much slower", base, shift(base, 1.3), 0.10, true, verdictWorse},
		{"much faster", base, shift(base, 0.7), 0.10, true, verdictBetter},
		{"throughput drop", base, shift(base, 0.7), 0.10, false, verdictWorse},
		{"throughput gain", base, shift(base, 1.3), 0.10, false, verdictBetter},
		{"noisy", noisy, shift(noisy, 1.3), 0.10, true, verdictUnresolved},
		{"no failures", []float64{0, 0, 0}, []float64{0, 0, 0}, 0, true, verdictWithin},
		{"new failures", []float64{0, 0, 0}, []float64{0, 0.01, 0}, 0, true, verdictWorse},
	} {
		if got, _ := judge(c.a, c.b, c.bound, c.lowerBetter); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestClassifyStacks(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "mcbnet/internal/core.sortCells", "main.main"}, "core"},
		{[]string{"slices.pdqsortCmpFunc[go.shape.int64]", "mcbnet/internal/seq.Sort"}, "seq"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "main.countingConn.Write", "bufio.(*Writer).Flush", "mcbnet/internal/transport/tcp.(*session).writer"}, "tcp"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "sched"},
		{[]string{"encoding/json.(*encodeState).marshal", "net/http.HandlerFunc.ServeHTTP"}, "json"},
		{[]string{"time.Sleep"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func burnCPU(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeProfile decodes a real runtime/pprof CPU profile and finds the
// benchmark's own busy loop in it.
func TestDecodeProfile(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	shares, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if p.samples == 0 {
		t.Skip("the profile caught no samples")
	}
	total := 0.0
	for _, m := range cpuModules {
		total += shares[m]
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("module shares sum to %v%%, want 100%%", total)
	}
	if shares["bench"] < 50 {
		t.Errorf("the busy loop got %.1f%% of %d samples, want most of them: %v", shares["bench"], p.samples, shares)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// the program prints from in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []e2eMetric `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !slices.Equal(spec.EndToEnd, e2eMetrics) {
		t.Errorf("end_to_end %+v, program has %+v", spec.EndToEnd, e2eMetrics)
	}
	layers := layerMetrics()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(layers))
	}
	for i, m := range layers {
		got := spec.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d: %+v, program has %+v", i, got, m)
		}
	}
}

// TestSmoke runs every workload in process at 2% of its size and length,
// untraced and traced: every answer verifies, every metric is reported, and
// no goroutine outlives its run. Admission rejections are allowed: the race
// detector slows the service below the offered rate, and shedding is then
// its designed answer.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			before, start := runtime.NumGoroutine(), time.Now()
			res, err := w.run(t.Context(), runConfig{seed: 1, seconds: defaultSeconds, scale: 0.02, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			t.Logf("%s traced=%v: %v, %s", w.name, traced, time.Since(start).Round(time.Millisecond), res.Counts)
			if c := res.Counts; c.OK == 0 || c.failed() != c.Rejected {
				t.Errorf("%s traced=%v: %s", w.name, traced, c)
			}
			if res.SetupS <= 0 {
				t.Errorf("%s traced=%v: setup took %v s", w.name, traced, res.SetupS)
			}
			for _, n := range e2eNames() {
				if n == "setup_s" || n == "rss_peak_mb" {
					continue // set by the child process around the run
				}
				if v, ok := res.Metrics[n]; !ok || v.Value <= 0 {
					t.Errorf("%s traced=%v: %s = %+v", w.name, traced, n, v)
				}
			}
			if traced && res.Metrics["mcb.cycles_per_run.sort"].Value <= 0 {
				t.Errorf("%s: traced run reports no engine layer: %v", w.name, res.Metrics)
			}
			waitGoroutines(t, before)
		}
	}
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines left, %d before the run\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
