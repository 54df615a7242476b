package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The load generator behind cmd/mcbload: it drives a declarative Profile
// against a live mcbd, verifies EVERY 200 response against a sequential
// oracle, aggregates per-(phase, op, mode) verified throughput into a
// BenchReport, and collects assertion violations (any incorrect answer, an
// unexpected error, a missing expected rejection).

// LoadOptions configures a profile run.
type LoadOptions struct {
	// Addr is the server base URL ("http://127.0.0.1:8326").
	Addr string
	// Client overrides the HTTP client (nil builds one with generous
	// per-host connection reuse).
	Client *http.Client
	// Logf, when non-nil, receives one progress line per phase.
	Logf func(format string, args ...any)
	// DurationScale multiplies every phase duration (tests and CI smoke
	// shrink profiles with values < 1). Zero means 1.
	DurationScale float64
}

// sample is one completed request observation.
type sample struct {
	op        string
	mode      string
	status    int // HTTP status; 0 = transport error
	correct   bool
	coalesced bool
}

// RunProfile executes the profile and aggregates the report. violations
// lists every failed assertion of the run (empty = the run verifies); err
// reports infrastructure failures (unreachable server, invalid profile).
func RunProfile(profile Profile, opts LoadOptions) (report *BenchReport, violations []string, err error) {
	if err := profile.Validate(); err != nil {
		return nil, nil, err
	}
	scale := opts.DurationScale
	if scale <= 0 {
		scale = 1
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
			},
		}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	report = &BenchReport{Profile: profile.Name}

	for pi, phase := range profile.Phases {
		duration := time.Duration(float64(time.Duration(phase.Duration)) * scale)
		samples, elapsed := runPhase(client, opts.Addr, &profile, pi, duration)
		entries := aggregate(profile.Name, phase.Name, samples, elapsed)
		report.Entries = append(report.Entries, entries...)

		rejected, incorrect, errored, budget := 0, 0, 0, 0
		for _, e := range entries {
			rejected += e.Rejected
			incorrect += e.Incorrect
			errored += e.Errors
			budget += e.BudgetErrors
			if e.Mode == "faulted" && e.Requests > 0 && e.OK == 0 {
				violations = append(violations, fmt.Sprintf("phase %s: no faulted %s request ever succeeded (%d exhausted)", phase.Name, e.Op, e.Exhausted))
			}
			logf("phase %-16s %-11s mode=%-9s requests=%-5d rps=%-8.1f rejected=%d",
				phase.Name, e.Op, e.Mode, e.Requests, e.RPS, e.Rejected)
		}
		if incorrect > 0 {
			violations = append(violations, fmt.Sprintf("phase %s: %d responses failed oracle verification", phase.Name, incorrect))
		}
		if errored > 0 {
			violations = append(violations, fmt.Sprintf("phase %s: %d requests failed with unexpected errors", phase.Name, errored))
		}
		if budget > 0 && !phase.AllowBudgetErrors {
			violations = append(violations, fmt.Sprintf("phase %s: %d unexpected budget rejections", phase.Name, budget))
		}
		if phase.ExpectRejections && rejected == 0 {
			violations = append(violations, fmt.Sprintf("phase %s: expected admission rejections, saw none", phase.Name))
		}
	}

	report.BatchWin = deriveBatchWin(report.Entries)
	return report, violations, nil
}

// runPhase drives one phase's workers until the deadline and returns the
// collected samples plus the measured wall time.
func runPhase(client *http.Client, addr string, profile *Profile, phaseIdx int, duration time.Duration) ([]sample, time.Duration) {
	phase := profile.Phases[phaseIdx]
	workers := phase.Concurrency
	if workers < 1 {
		workers = 1
	}
	// Open-loop pacing: a shared ticker feeds admission tokens at the
	// target rate; a closed loop (Rate == 0) lets each worker fire
	// back-to-back.
	var tokens <-chan time.Time
	var ticker *time.Ticker
	if phase.Rate > 0 {
		ticker = time.NewTicker(time.Duration(float64(time.Second) / phase.Rate))
		tokens = ticker.C
		defer ticker.Stop()
	}

	totalWeight := 0
	for _, spec := range phase.Mix {
		w := spec.Weight
		if w <= 0 {
			w = 1
		}
		totalWeight += w
	}

	start := time.Now()
	deadline := start.Add(duration)
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(profile.Seed*1_000_003 + int64(phaseIdx)*9973 + int64(worker)))
			var local []sample
			for time.Now().Before(deadline) {
				if tokens != nil {
					select {
					case <-tokens:
					case <-time.After(time.Until(deadline)):
					}
					if !time.Now().Before(deadline) {
						break
					}
				}
				spec := drawSpec(rng, phase.Mix, totalWeight)
				local = append(local, doRequest(client, addr, profile.Dist, spec, rng))
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return samples, time.Since(start)
}

// drawSpec picks a mix entry by weight.
func drawSpec(rng *rand.Rand, mix []OpSpec, totalWeight int) *OpSpec {
	r := rng.Intn(totalWeight)
	for i := range mix {
		w := mix[i].Weight
		if w <= 0 {
			w = 1
		}
		if r < w {
			return &mix[i]
		}
		r -= w
	}
	return &mix[len(mix)-1]
}

// specMode classifies a spec's request class for aggregation.
func specMode(spec *OpSpec) string {
	switch {
	case spec.FaultRate > 0:
		return "faulted"
	case spec.NoBatch:
		return "unbatched"
	default:
		return "batched"
	}
}

// doRequest generates one request from the spec, sends it, and verifies the
// response against the sequential oracle.
func doRequest(client *http.Client, addr, dist string, spec *OpSpec, rng *rand.Rand) sample {
	values := genValues(rng, dist, spec.N)
	req := Request{
		Values:       values,
		Order:        spec.Order,
		NoBatch:      spec.NoBatch,
		BudgetCycles: spec.BudgetCycles,
		FaultRate:    spec.FaultRate,
		Retries:      spec.Retries,
	}
	if spec.FaultRate > 0 {
		req.FaultSeed = rng.Uint64()
	}
	switch spec.Op {
	case "topk":
		req.K = spec.TopK
		if req.K < 1 {
			req.K = 1 + rng.Intn(spec.N)
		}
	case "rank":
		req.D = 1 + rng.Intn(spec.N)
	case "multiselect":
		ranks := spec.Ranks
		if ranks < 1 {
			ranks = 2
		}
		req.Ds = make([]int, ranks)
		for i := range req.Ds {
			req.Ds[i] = 1 + rng.Intn(spec.N)
		}
	}

	s := sample{op: spec.Op, mode: specMode(spec)}
	body, _ := json.Marshal(&req)
	resp, err := client.Post(addr+"/v1/"+spec.Op, "application/json", bytes.NewReader(body))
	if err != nil {
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return s
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		s.status = 0
		return s
	}
	s.coalesced = out.Batched
	s.correct = verifyOracle(&req, spec.Op, out.Values)
	return s
}

// verifyOracle recomputes the answer sequentially and compares.
func verifyOracle(req *Request, op string, got []int64) bool {
	sorted := append([]int64(nil), req.Values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var want []int64
	switch op {
	case "sort":
		want = sorted
		if req.Order == "asc" || req.Order == "ascending" {
			want = make([]int64, len(sorted))
			for i, v := range sorted {
				want[len(sorted)-1-i] = v
			}
		}
	case "topk":
		want = sorted[:req.K]
	case "median":
		want = []int64{sorted[(len(sorted)+1)/2-1]}
	case "rank":
		want = []int64{sorted[req.D-1]}
	case "multiselect":
		want = make([]int64, len(req.Ds))
		for i, d := range req.Ds {
			want[i] = sorted[d-1]
		}
	default:
		return false
	}
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// genValues draws request values from the profile's distribution.
func genValues(rng *rand.Rand, dist string, n int) []int64 {
	values := make([]int64, n)
	switch dist {
	case "zipf":
		z := rand.NewZipf(rng, 1.3, 8, 1<<16)
		for i := range values {
			values[i] = int64(z.Uint64())
		}
	case "runs":
		// Concatenated sorted runs: the logmerge shape (each run is one
		// shard's already-ordered log).
		const runs = 4
		off := 0
		for r := 0; r < runs; r++ {
			cnt := n / runs
			if r < n%runs {
				cnt++
			}
			run := values[off : off+cnt]
			for i := range run {
				run[i] = rng.Int63n(1 << 20)
			}
			sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
			off += cnt
		}
	default: // uniform
		for i := range values {
			values[i] = rng.Int63n(1 << 20)
		}
	}
	return values
}

// aggregate folds a phase's samples into per-(op, mode) entries.
func aggregate(profile, phase string, samples []sample, elapsed time.Duration) []BenchEntry {
	type key struct{ op, mode string }
	groups := map[key][]sample{}
	var order []key
	for _, s := range samples {
		k := key{s.op, s.mode}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].op != order[j].op {
			return order[i].op < order[j].op
		}
		return order[i].mode < order[j].mode
	})
	entries := make([]BenchEntry, 0, len(order))
	for _, k := range order {
		group := groups[k]
		e := BenchEntry{Profile: profile, Phase: phase, Op: k.op, Mode: k.mode, Requests: len(group)}
		for _, s := range group {
			switch {
			case s.status == http.StatusOK && s.correct:
				e.OK++
				if s.coalesced {
					e.Coalesced++
				}
			case s.status == http.StatusOK:
				e.Incorrect++
			case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
				e.Rejected++
			case s.status == http.StatusUnprocessableEntity:
				e.BudgetErrors++
			case k.mode == "faulted" && s.status >= http.StatusInternalServerError:
				// Retry budget exhausted under injected faults: a typed
				// abort, the contract's accepted failure mode.
				e.Exhausted++
			default:
				e.Errors++
			}
		}
		if secs := elapsed.Seconds(); secs > 0 {
			e.RPS = float64(e.OK) / secs
		}
		entries = append(entries, e)
	}
	return entries
}

// deriveBatchWin extracts the batched-vs-unbatched top-k comparison from a
// report's entries (the batch-win profile's phase pair, but any profile
// carrying both modes of the same op works).
func deriveBatchWin(entries []BenchEntry) *BatchWin {
	var unbatched, batched float64
	for _, e := range entries {
		if e.Op != "topk" || e.OK == 0 {
			continue
		}
		switch {
		case e.Mode == "unbatched" && e.RPS > unbatched:
			unbatched = e.RPS
		case e.Mode == "batched" && e.RPS > batched:
			batched = e.RPS
		}
	}
	if unbatched <= 0 || batched <= 0 {
		return nil
	}
	return &BatchWin{UnbatchedRPS: unbatched, BatchedRPS: batched, Ratio: batched / unbatched}
}

// WaitReady polls /v1/healthz until the server answers or the timeout
// lapses (mcbload's startup handshake with a freshly spawned mcbd).
func WaitReady(addr string, timeout time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("service at %s not ready after %v: %w", addr, timeout, err)
			}
			return fmt.Errorf("service at %s not ready after %v", addr, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
