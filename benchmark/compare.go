package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Verdicts of -compare, for one (workload, metric) of set B against set A.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse beyond bound"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// comparison is one (workload, metric) row of -compare.
type comparison struct {
	workload, metric, unit string
	a, b                   []float64
	bound                  float64
	lowerBetter            bool
	verdict                string
	change                 float64 // relative worsening of B's median (negative: better)
}

// judge applies the benchmark's rule to two sets of runs of one metric,
// A the baseline and B the candidate, paired in the order they ran:
//   - better: B beats A in at least nine tenths of the pairs, and the
//     medians differ by more than A's quartile spread;
//   - unresolved: either set's quartile spread, as a share of its median,
//     is wider than the bound;
//   - worse beyond bound: B's median is worse than A's by more than the
//     bound;
//   - within bound otherwise.
//
// A bound of 0 (fail_share) allows no increase at all, so it compares means:
// a single new failure in any run counts.
func judge(a, b []float64, bound float64, lowerBetter bool) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	if bound == 0 {
		ma, mb = mean(a), mean(b)
	}
	worse := func(x, y float64) float64 { // how much worse y is than x, as a share of x
		d := y - x
		if !lowerBetter {
			d = -d
		}
		if x == 0 {
			switch {
			case d > 0:
				return math.Inf(1)
			case d < 0:
				return math.Inf(-1)
			}
			return 0
		}
		return d / math.Abs(x)
	}
	change = worse(ma, mb)
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if worse(a[i], b[i]) < 0 {
			wins++
		}
	}
	q1a, q3a := quartiles(a)
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > q3a-q1a {
		return verdictBetter, change
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		m := median(xs)
		if m == 0 {
			if q3 == q1 {
				return 0
			}
			return math.Inf(1)
		}
		return (q3 - q1) / math.Abs(m)
	}
	if bound > 0 && (spread(a) > bound || spread(b) > bound) {
		return verdictUnresolved, change
	}
	if change > bound {
		return verdictWorse, change
	}
	return verdictWithin, change
}

// compareSets builds the rows of -compare: every end-to-end metric of the
// untraced runs, plus fail_share (failed / attempted, no increase allowed),
// for each workload present in both sets.
func compareSets(a, b []runRecord) []comparison {
	type key struct{ workload, metric string }
	collect := func(recs []runRecord) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			for _, m := range e2eMetrics {
				if v, ok := r.Metrics[m.Name]; ok {
					k := key{r.Workload, m.Name}
					out[k] = append(out[k], v.Value)
				}
			}
			if r.Counts.Attempted > 0 {
				k := key{r.Workload, "fail_share"}
				out[k] = append(out[k], float64(r.Counts.failed())/float64(r.Counts.Attempted))
			}
		}
		return out
	}
	ca, cb := collect(a), collect(b)
	metrics := append(slices.Clone(e2eMetrics), e2eMetric{"fail_share", "share", "lower", 0})
	var rows []comparison
	for _, w := range workloads {
		for _, m := range metrics {
			k := key{w.name, m.Name}
			if len(ca[k]) == 0 || len(cb[k]) == 0 {
				continue
			}
			row := comparison{workload: w.name, metric: m.Name, unit: m.Unit, a: ca[k], b: cb[k], bound: m.Bound, lowerBetter: m.Better == "lower"}
			row.verdict, row.change = judge(row.a, row.b, row.bound, row.lowerBetter)
			rows = append(rows, row)
		}
	}
	return rows
}

// runCompare prints one row per (workload, metric) with both sets' medians
// and quartiles and the verdict. It exits 2 when any row is worse beyond its
// bound.
func runCompare(pathA, pathB string, w io.Writer) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	rows := compareSets(a, b)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two sets share no (workload, metric) of untraced runs")
		return 1
	}
	fmt.Fprintf(w, "A = %s, B = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-12s %-13s %-6s %4s %-34s %4s %-34s %8s %6s  %s\n",
		"workload", "metric", "unit", "nA", "A median [q1, q3]", "nB", "B median [q1, q3]", "worse%", "bound%", "verdict")
	status := 0
	for _, r := range rows {
		q1a, q3a := quartiles(r.a)
		q1b, q3b := quartiles(r.b)
		fmt.Fprintf(w, "%-12s %-13s %-6s %4d %-34s %4d %-34s %8.2f %6.1f  %s\n",
			r.workload, r.metric, r.unit,
			len(r.a), fmt.Sprintf("%.6g [%.6g, %.6g]", median(r.a), q1a, q3a),
			len(r.b), fmt.Sprintf("%.6g [%.6g, %.6g]", median(r.b), q1b, q3b),
			100*r.change, 100*r.bound, r.verdict)
		if r.verdict == verdictWorse {
			status = 2
		}
	}
	return status
}
