package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// This file is the declarative workload-profile vocabulary of cmd/mcbload:
// a profile is a seeded sequence of phases, each a (request mix, arrival
// process, concurrency, duration) tuple, in the load-profile + phased-run
// harness idiom. The existing examples (topk leaderboard, logmerge,
// sensormedian) appear here as service scenario profiles.

// Duration is a time.Duration that marshals as a Go duration string
// ("250ms", "2s") so profile files stay human-editable.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(parsed)
	return nil
}

// OpSpec is one entry of a phase's request mix.
type OpSpec struct {
	// Op is one of Ops ("sort", "topk", "median", "rank", "multiselect").
	Op string `json:"op"`
	// Weight is the relative draw weight within the mix (default 1).
	Weight int `json:"weight,omitempty"`
	// N is the number of values per request.
	N int `json:"n"`
	// TopK / Ranks parameterize topk and multiselect requests.
	TopK  int `json:"topk,omitempty"`
	Ranks int `json:"ranks,omitempty"`
	// Order applies to sort requests ("desc" default).
	Order string `json:"order,omitempty"`
	// NoBatch opts requests of this spec out of coalescing.
	NoBatch bool `json:"no_batch,omitempty"`
	// BudgetCycles attaches a per-request cycle budget.
	BudgetCycles int64 `json:"budget_cycles,omitempty"`
	// FaultRate/Retries route requests of this spec through the server's
	// fault-injected recovery path.
	FaultRate float64 `json:"fault_rate,omitempty"`
	Retries   int     `json:"retries,omitempty"`
}

// Phase is one timed segment of a profile.
type Phase struct {
	Name     string   `json:"name"`
	Duration Duration `json:"duration"`
	// Concurrency is the number of in-flight workers (default 1).
	Concurrency int `json:"concurrency,omitempty"`
	// Rate, when positive, paces arrivals at this many requests/sec across
	// all workers (open loop); zero means closed loop (each worker fires
	// as soon as its previous request answers).
	Rate float64 `json:"rate,omitempty"`
	// Mix is the weighted request mix of the phase.
	Mix []OpSpec `json:"mix"`
	// ExpectRejections asserts that admission control sheds load during
	// this phase (the over-rate profile): the run fails if no request was
	// answered 429/503.
	ExpectRejections bool `json:"expect_rejections,omitempty"`
	// AllowBudgetErrors tolerates 422 budget rejections in this phase
	// (phases that probe per-request budgets).
	AllowBudgetErrors bool `json:"allow_budget_errors,omitempty"`
}

// Profile is a declarative load profile.
type Profile struct {
	Name string `json:"name"`
	// Seed drives every random draw (mix selection, value generation,
	// fault seeds); a profile run is reproducible given (profile, seed).
	Seed int64 `json:"seed"`
	// Dist shapes request values: "uniform" (default), "zipf" (skewed,
	// the topk leaderboard shape), or "runs" (concatenated sorted runs,
	// the logmerge shape).
	Dist   string  `json:"dist,omitempty"`
	Phases []Phase `json:"phases"`
	// Notes documents scope and deliberate omissions of the profile —
	// printed by `mcbload -list` so coverage decisions are visible where
	// the profiles are chosen, not just in the design doc.
	Notes string `json:"notes,omitempty"`
}

// Validate rejects malformed profiles before any traffic is sent.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("profile has no name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("profile %q has no phases", p.Name)
	}
	switch p.Dist {
	case "", "uniform", "zipf", "runs":
	default:
		return fmt.Errorf("profile %q: unknown dist %q", p.Name, p.Dist)
	}
	opOK := map[string]bool{}
	for _, op := range Ops {
		opOK[op] = true
	}
	for i, ph := range p.Phases {
		if ph.Duration <= 0 {
			return fmt.Errorf("profile %q phase %d (%s): non-positive duration", p.Name, i, ph.Name)
		}
		if len(ph.Mix) == 0 {
			return fmt.Errorf("profile %q phase %d (%s): empty mix", p.Name, i, ph.Name)
		}
		for j, spec := range ph.Mix {
			if !opOK[spec.Op] {
				return fmt.Errorf("profile %q phase %d mix %d: unknown op %q", p.Name, i, j, spec.Op)
			}
			if spec.N < 1 {
				return fmt.Errorf("profile %q phase %d mix %d: n must be >= 1", p.Name, i, j)
			}
		}
	}
	return nil
}

// Builtin profiles, by name. `smoke-mixed` is the CI service-smoke run: all
// five ops, then a fault-injected segment, then an over-rate segment that
// must be shed by admission control. `batch-win` measures the batching win
// the benchmark gate asserts. The scenario profiles recast the repository
// examples as sustained service load.
var builtinProfiles = map[string]func() Profile{
	"smoke-mixed":   smokeMixedProfile,
	"batch-win":     batchWinProfile,
	"service-bench": serviceBenchProfile,
	"topk":          topkScenarioProfile,
	"logmerge":      logmergeScenarioProfile,
	"sensormedian":  sensorMedianScenarioProfile,
}

// BuiltinProfile returns a named builtin profile.
func BuiltinProfile(name string) (Profile, error) {
	f, ok := builtinProfiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("unknown profile %q (have: %v)", name, BuiltinProfileNames())
	}
	return f(), nil
}

// BuiltinProfileNames lists the builtin profiles, sorted.
func BuiltinProfileNames() []string {
	names := make([]string, 0, len(builtinProfiles))
	for name := range builtinProfiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// allOpsMix is a balanced five-op mix of small requests.
func allOpsMix(n int) []OpSpec {
	return []OpSpec{
		{Op: "sort", Weight: 2, N: n},
		{Op: "sort", Weight: 1, N: n, Order: "asc"},
		{Op: "topk", Weight: 2, N: n, TopK: 8},
		{Op: "median", Weight: 2, N: n},
		{Op: "rank", Weight: 2, N: n},
		{Op: "multiselect", Weight: 1, N: n, Ranks: 3},
	}
}

func smokeMixedProfile() Profile {
	return Profile{
		Name: "smoke-mixed",
		Seed: 1,
		Notes: "Covers ops, fault-injected recovery, and admission-control shedding. " +
			"Sequencer failover (seq-failover) is deliberately not exercised here: mcbd " +
			"runs the in-process engine with no sequencer process to kill — that drill " +
			"lives in the transport-chaos CI job (TestMultiProcSmoke/SequencerFailover).",
		Phases: []Phase{
			{
				Name: "mixed", Duration: Duration(2 * time.Second), Concurrency: 6,
				Mix: allOpsMix(48),
			},
			{
				Name: "faults", Duration: Duration(2 * time.Second), Concurrency: 4,
				// The per-delivery fault rate compounds over a run's message
				// count, and the select protocols are message-heavy (partial
				// sums every filtering iteration), so they run at a lower
				// rate with a deeper retry budget than sort/topk. Retry
				// exhaustion still happens and is tolerated as a typed 500
				// (the Exhausted column); a silent wrong answer never is.
				Mix: []OpSpec{
					{Op: "sort", Weight: 1, N: 32, FaultRate: 0.002, Retries: 6},
					{Op: "topk", Weight: 1, N: 32, TopK: 4, FaultRate: 0.002, Retries: 6},
					{Op: "median", Weight: 1, N: 32, FaultRate: 0.0005, Retries: 12},
					{Op: "rank", Weight: 1, N: 32, FaultRate: 0.0005, Retries: 12},
					{Op: "multiselect", Weight: 1, N: 32, Ranks: 2, FaultRate: 0.0005, Retries: 12},
				},
			},
			{
				Name: "overload", Duration: Duration(1 * time.Second), Concurrency: 64,
				Mix:              allOpsMix(48),
				ExpectRejections: true,
			},
		},
	}
}

// batchWinProfile is the acceptance-criterion measurement: the same 8-way
// concurrent small-top-k load, first with coalescing disabled per request,
// then with it enabled, on the same pool. The report's batch_win block and
// mcbload's -min-batch-win gate derive from the two phases' topk rates.
func batchWinProfile() Profile {
	small := func(noBatch bool) []OpSpec {
		return []OpSpec{{Op: "topk", N: 32, TopK: 8, NoBatch: noBatch}}
	}
	return Profile{
		Name: "batch-win",
		Seed: 2,
		Phases: []Phase{
			{Name: "unbatched", Duration: Duration(3 * time.Second), Concurrency: 8, Mix: small(true)},
			{Name: "batched", Duration: Duration(3 * time.Second), Concurrency: 8, Mix: small(false)},
		},
	}
}

// serviceBenchProfile is the batch-win pair (gated by mcbload -min-batch-win)
// plus a sustained mixed phase, every answer oracle-checked.
func serviceBenchProfile() Profile {
	p := batchWinProfile()
	p.Name = "service-bench"
	p.Seed = 3
	p.Phases = append(p.Phases, Phase{
		Name: "sustained-mixed", Duration: Duration(3 * time.Second), Concurrency: 6,
		Mix: allOpsMix(64),
	})
	return p
}

// topkScenarioProfile is examples/topk as sustained load: skewed
// (Zipf-distributed) scores, top-k leaderboard queries.
func topkScenarioProfile() Profile {
	return Profile{
		Name: "topk",
		Seed: 4,
		Dist: "zipf",
		Phases: []Phase{
			{Name: "leaderboard", Duration: Duration(3 * time.Second), Concurrency: 8,
				Mix: []OpSpec{
					{Op: "topk", Weight: 3, N: 96, TopK: 10},
					{Op: "rank", Weight: 1, N: 96},
				}},
		},
	}
}

// logmergeScenarioProfile is examples/logmerge as sustained load: requests
// carry concatenated sorted runs (per-shard logs) to be merged into one
// ascending order.
func logmergeScenarioProfile() Profile {
	return Profile{
		Name: "logmerge",
		Seed: 5,
		Dist: "runs",
		Phases: []Phase{
			{Name: "merge", Duration: Duration(3 * time.Second), Concurrency: 6,
				Mix: []OpSpec{{Op: "sort", N: 80, Order: "asc"}}},
		},
	}
}

// sensorMedianScenarioProfile is examples/sensormedian as sustained load:
// noisy uniform readings, median and quantile queries.
func sensorMedianScenarioProfile() Profile {
	return Profile{
		Name: "sensormedian",
		Seed: 6,
		Phases: []Phase{
			{Name: "robust-aggregate", Duration: Duration(3 * time.Second), Concurrency: 6,
				Mix: []OpSpec{
					{Op: "median", Weight: 2, N: 64},
					{Op: "multiselect", Weight: 1, N: 64, Ranks: 3},
				}},
		},
	}
}
