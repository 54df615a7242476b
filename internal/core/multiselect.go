package core

import (
	"fmt"

	"mcbnet/internal/mcb"
)

// MultiSelect finds the values of several descending ranks in a single
// network computation: the filtering selections run back to back inside one
// lock-step program, so the per-run engine overhead is paid once and the
// total cost is the sum of the individual selections (each
// O(p log(kn/p)) messages). Ranks may be given in any order and may repeat;
// results are returned in the same order as ds.
func MultiSelect(inputs [][]int64, ds []int, opts SelectOptions) ([]int64, *SelectReport, error) {
	p := len(inputs)
	if err := validateSelect(inputs, opts.K, ds...); err != nil {
		return nil, nil, err
	}
	threshold := selectThreshold(p, opts.K, opts.Threshold)

	report := &SelectReport{Algorithm: SelFiltering}
	results := make([]int64, len(ds))
	progs := make([]func(mcb.Node), p)
	for i := range progs {
		id := i
		in := inputs[i]
		progs[i] = func(pr mcb.Node) {
			mine := makeElems(id, in)
			for qi, d := range ds {
				// Per-query phase prefixes keep the queries' filter phases
				// distinct in Stats.Phases (same-name phases merge).
				got := selectFiltering(pr, mine, d, threshold, fmt.Sprintf("select:q%02d:", qi))
				if id == 0 {
					results[qi] = got.V
				}
			}
		}
	}
	env := opts.runEnv()
	res, err := env.run(opts.engineConfig(p), progs)
	if res != nil {
		report.Stats = res.Stats
		report.derivePhaseDiagnostics()
	}
	if err != nil {
		// As in Select: the partial report covers the cycles that completed
		// before the abort (nil when the engine could not collect them).
		if res == nil {
			report = nil
		}
		return nil, report, err
	}
	// All answers were captured at processor 0; under a distributed
	// transport only the peer hosting it has them.
	if err := exchangeScalar(env, "multiselect:results", p, &results); err != nil {
		return nil, report, err
	}
	return results, report, nil
}
