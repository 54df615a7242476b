package core

import (
	"fmt"
	"math"

	"mcbnet/internal/mcb"
)

// Sort sorts a set of elements distributed among p = len(inputs) processors
// on an MCB(p, opts.K) network. inputs[i] is the list held by processor i;
// the paper assumes n_i > 0 w.l.o.g., but empty processors are accepted (the
// set as a whole must be non-empty). The result preserves cardinalities:
// outputs[i] has len(inputs[i]) elements and receives the contiguous rank
// segment [n+_{i-1}+1, n+_i] — the largest elements go to processor 1 under
// the default Descending order.
//
// Duplicate values are allowed; they are disambiguated internally by the
// paper's lexicographic-triple device.
func Sort(inputs [][]int64, opts SortOptions) ([][]int64, *Report, error) {
	p := len(inputs)
	algo, err := validateSort(inputs, opts)
	if err != nil {
		return nil, nil, err
	}

	report := &Report{Algorithm: algo}
	outputs := make([][]int64, p)
	negate := opts.Order == Ascending

	progs := make([]func(mcb.Node), p)
	for i := range progs {
		in := inputs[i]
		id := i
		progs[i] = func(pr mcb.Node) {
			vals := in
			if negate {
				vals = make([]int64, len(in))
				for j, v := range in {
					vals[j] = -v
				}
			}
			mine := makeElems(id, vals)
			// Every processor marks; markers carrying the same name in the
			// same cycle coalesce at the engine.
			r := &phaser{pr}
			var sortedElems []elem
			switch algo {
			case AlgoColumnsortGather:
				sortedElems = gatherSort(pr, mine, r, report)
			case AlgoColumnsortVirtual:
				sortedElems = virtualSort(pr, mine, r, report)
			case AlgoRankSort:
				sortedElems = rankSortWhole(pr, mine, r)
			case AlgoMergeSort:
				sortedElems = mergeSortWhole(pr, mine, r)
			case AlgoColumnsortRecursive:
				sortedElems = recursiveSort(pr, mine, r, report)
			default:
				pr.Abortf("core: unknown algorithm %v", algo)
			}
			out := make([]int64, len(sortedElems))
			for j, e := range sortedElems {
				if negate {
					out[j] = -e.V
				} else {
					out[j] = e.V
				}
			}
			outputs[id] = out
		}
	}
	env := opts.runEnv()
	res, err := env.run(opts.engineConfig(p), progs)
	if res != nil {
		report.Stats = res.Stats
		report.PhaseCycles = phaseCyclesFrom(res.Stats.Phases)
	}
	if err != nil {
		// The partial report covers the cycles that completed before the
		// abort (nil when the engine could not collect them safely).
		if res == nil {
			report = nil
		}
		return nil, report, err
	}
	// Under a distributed transport only the hosted processors' outputs were
	// produced locally; gather the rest from the peer group. The Columnsort
	// geometry is recorded by processor 0's program, so peers that do not
	// host it fetch it the same way.
	if err := exchangeSlices(env, "sort:outputs", outputs); err != nil {
		return nil, report, err
	}
	geom := sortGeometry{Columns: report.Columns, ColumnLen: report.ColumnLen}
	if err := exchangeScalar(env, "sort:geometry", p, &geom); err != nil {
		return nil, report, err
	}
	report.Columns, report.ColumnLen = geom.Columns, geom.ColumnLen
	return outputs, report, nil
}

// sortGeometry carries the processor-0-recorded Columnsort geometry to the
// rest of a distributed peer group.
type sortGeometry struct {
	Columns   int `json:"columns"`
	ColumnLen int `json:"column_len"`
}

// validateSort checks the inputs and options shared by Sort and the
// checkpointed sort driver, and resolves AlgoAuto to a concrete algorithm.
func validateSort(inputs [][]int64, opts SortOptions) (Algorithm, error) {
	p := len(inputs)
	if p == 0 {
		return 0, fmt.Errorf("core: no processors")
	}
	if opts.K < 1 || opts.K > p {
		return 0, fmt.Errorf("core: K must satisfy 1 <= K <= p, got K=%d p=%d", opts.K, p)
	}
	// The paper assumes n_i > 0 w.l.o.g.; this implementation also accepts
	// empty processors (they contribute nothing and receive nothing), as
	// long as the set itself is non-empty.
	n := 0
	for i, in := range inputs {
		if len(in) >= 1<<31 {
			return 0, fmt.Errorf("core: processor %d holds too many elements", i)
		}
		n += len(in)
		if opts.Order == Ascending {
			for _, v := range in {
				if v == math.MinInt64 {
					return 0, fmt.Errorf("core: MinInt64 unsupported with Ascending order")
				}
			}
		}
	}

	if n == 0 {
		return 0, fmt.Errorf("core: the distributed set is empty")
	}

	algo := opts.Algorithm
	if algo == AlgoAuto {
		algo = chooseAlgorithm(inputs, opts.K)
	}
	if algo == AlgoColumnsortRecursive {
		for i := range inputs {
			if len(inputs[i]) != len(inputs[0]) {
				return 0, fmt.Errorf("core: recursive Columnsort requires an even distribution (processor %d has %d elements, processor 0 has %d)",
					i, len(inputs[i]), len(inputs[0]))
			}
		}
	}
	return algo, nil
}

// chooseAlgorithm implements AlgoAuto: Rank-Sort when only a single channel
// or a single usable column exists, otherwise gathered Columnsort.
func chooseAlgorithm(inputs [][]int64, k int) Algorithm {
	if k == 1 {
		return AlgoRankSort
	}
	n := 0
	for _, in := range inputs {
		n += len(in)
	}
	if maxUsableCols(n, k) == 1 {
		// Too few elements to form multiple columns; a single-channel sort
		// avoids the gather/scatter overhead.
		return AlgoRankSort
	}
	return AlgoColumnsortGather
}
