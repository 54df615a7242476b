package main

import (
	"fmt"
	"math"
	"sort"

	"mcbnet/internal/service"
)

// metric is one measured value with its unit, as printed on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetric declares an end-to-end metric: what a user of the system sees.
// Bound is the share of the baseline median by which the metric may worsen
// before a change counts as a regression.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// e2eMetrics is the benchmark's end-to-end metric set. Every workload reports
// every one of them (see README.md for what each means per workload).
// The bounds follow the spread measured over ten seeds on a shared 2-CPU
// machine (README.md), whose speed drifts by 20-30% over minutes.
var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"capacity_rps", "1/s", "higher", 0.25},
	{"sort_s", "s", "lower", 0.25},
	{"select_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
}

// layerMetric declares a per-layer metric of the traced run.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
}

// jobKinds suffix the per-job layer metrics of the library and peer
// workloads; the service workloads split the same way by op class (sort and
// topk are sorts, median, rank and multiselect are selections).
var jobKinds = []string{"sort", "select"}

// cpuModules are the groups of the CPU-profile ledger (see cpuprof.go).
var cpuModules = []string{"bench", "http", "json", "service", "core", "mcb", "seq", "schedule", "checkpoint", "tcp", "gc", "sched", "other"}

// layerMetrics lists every per-layer metric a traced run reports. A layer a
// workload never reaches reports 0.
func layerMetrics() []layerMetric {
	var out []layerMetric
	add := func(name, unit string) { out = append(out, layerMetric{name, unit, "lower"}) }
	perKind := func(name, unit string) {
		for _, k := range jobKinds {
			add(name+"."+k, unit)
		}
	}
	add("gen.lag_p50_ms", "ms")
	add("gen.lag_p99_ms", "ms")
	add("http.rtt_p50_ms", "ms")
	add("http.server_p50_ms", "ms")
	add("http.outside_p50_ms", "ms")
	add("http.encode_p50_ms", "ms")
	add("service.elapsed_p50_ms", "ms")
	add("service.elapsed_p99_ms", "ms")
	out = append(out,
		layerMetric{"service.batch_size_mean", "jobs", "higher"},
		layerMetric{"service.coalesced_share", "%", "higher"})
	add("service.wait_est_p50_ms", "ms")
	add("core.runbatch_p50_ms", "ms")
	perKind("core.verify_s", "s")
	perKind("core.host_s", "s")
	perKind("mcb.cycles_per_run", "count")
	perKind("mcb.messages_per_run", "count")
	perKind("mcb.run_s", "s")
	perKind("mcb.ns_per_cycle", "ns")
	add("schedule.build_s", "s")
	perKind("checkpoint.saves", "count")
	perKind("checkpoint.save_s", "s")
	perKind("checkpoint.bytes", "B")
	perKind("tcp.run_p50_ms", "ms")
	perKind("tcp.exchange_p50_ms", "ms")
	perKind("tcp.exchanges", "count")
	perKind("tcp.us_per_cycle", "us")
	perKind("tcp.bytes_per_cycle", "B")
	perKind("tcp.writes_per_cycle", "count")
	for _, m := range cpuModules {
		add("cpu."+m, "%")
	}
	for _, m := range e2eMetrics {
		add("overhead."+m.Name, "ratio")
	}
	return out
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range e2eMetrics {
		u[m.Name] = m.Unit
	}
	for _, m := range layerMetrics() {
		u[m.Name] = m.Unit
	}
	return u
}()

// metricSet collects named values; units come from the declarations.
type metricSet map[string]metric

func (s metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s[name] = metric{Value: v, Unit: units[name]}
}

// fill gives every declared metric missing from s the value 0.
func (s metricSet) fill(names []string) {
	for _, n := range names {
		if _, ok := s[n]; !ok {
			s.set(n, 0)
		}
	}
}

// print writes one "name value unit" line per metric, sorted by name.
func (s metricSet) print(w func(format string, args ...any), indent string) {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w("%s%-32s %14.6g %s\n", indent, n, s[n].Value, s[n].Unit)
	}
}

func e2eNames() []string {
	out := make([]string, len(e2eMetrics))
	for i, m := range e2eMetrics {
		out[i] = m.Name
	}
	return out
}

func layerNames() []string {
	ms := layerMetrics()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// pct is the nearest-rank q-quantile of xs (service.Percentile on a sorted
// copy); 0 for no samples.
func pct(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return service.Percentile(s, q)
}

// windowedP99 is the median over windows of each window's nearest-rank 99th
// percentile. A stall of the shared machine fills the tail of the windows it
// falls in, and the median over the windows leaves them out.
func windowedP99(windows [][]float64) float64 {
	p99s := make([]float64, len(windows))
	for i, w := range windows {
		p99s[i] = pct(w, 0.99)
	}
	return median(p99s)
}

// median is the middle value (mean of the two middle values for an even
// count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so spreads
// computed here agree with an outside check of the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// counts is a run's failure accounting, one entry per operation attempted.
type counts struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Incorrect int `json:"incorrect"`
	Rejected  int `json:"rejected"`
	Errored   int `json:"errored"`
	Exhausted int `json:"exhausted"`
}

func (c *counts) add(o counts) {
	c.Attempted += o.Attempted
	c.OK += o.OK
	c.Incorrect += o.Incorrect
	c.Rejected += o.Rejected
	c.Errored += o.Errored
	c.Exhausted += o.Exhausted
}

// failed is every attempted operation that did not return a verified answer.
func (c counts) failed() int { return c.Incorrect + c.Rejected + c.Errored + c.Exhausted }

func (c counts) String() string {
	return fmt.Sprintf("attempted=%d ok=%d incorrect=%d rejected=%d errored=%d exhausted=%d",
		c.Attempted, c.OK, c.Incorrect, c.Rejected, c.Errored, c.Exhausted)
}

// outcome classifies one operation.
type outcome int

const (
	outOK outcome = iota
	outIncorrect
	outRejected
	outErrored
	outExhausted
)

func (c *counts) note(o outcome) {
	c.Attempted++
	switch o {
	case outOK:
		c.OK++
	case outIncorrect:
		c.Incorrect++
	case outRejected:
		c.Rejected++
	case outErrored:
		c.Errored++
	case outExhausted:
		c.Exhausted++
	}
}
