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
	if p == 0 {
		return nil, nil, fmt.Errorf("core: no processors")
	}
	if opts.K < 1 || opts.K > p {
		return nil, nil, fmt.Errorf("core: K must satisfy 1 <= K <= P, got K=%d p=%d", opts.K, p)
	}
	if len(ds) == 0 {
		return nil, nil, fmt.Errorf("core: no ranks requested")
	}
	n := 0
	for _, in := range inputs {
		n += len(in)
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("core: the distributed set is empty")
	}
	for _, d := range ds {
		if d < 1 || d > n {
			return nil, nil, fmt.Errorf("core: rank %d out of range [1, %d]", d, n)
		}
	}
	threshold := opts.Threshold
	if threshold <= 0 {
		threshold = p / opts.K
	}
	if threshold < 1 {
		threshold = 1
	}

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
	cfg := mcb.Config{P: p, K: opts.K, MaxCycles: opts.MaxCycles, StallTimeout: opts.StallTimeout,
		Recorder: opts.Recorder, ProfileLabels: opts.ProfileLabels}
	env := opts.runEnv()
	res, err := env.run(cfg, progs)
	if err != nil {
		return nil, nil, err
	}
	report.Stats = res.Stats
	report.derivePhaseDiagnostics()
	// All answers were captured at processor 0; under a distributed
	// transport only the peer hosting it has them.
	if err := exchangeScalar(env, "multiselect:results", p, &results); err != nil {
		return nil, nil, err
	}
	return results, report, nil
}
