package service

// BenchEntry is one measured (phase, op, mode) aggregate of a profile run.
type BenchEntry struct {
	Profile string `json:"profile"`
	Phase   string `json:"phase"`
	Op      string `json:"op"`
	// Mode classifies the request class: "batched" (eligible for
	// coalescing), "unbatched" (NoBatch), or "faulted" (recovery path).
	Mode string `json:"mode"`

	Requests     int `json:"requests"`
	OK           int `json:"ok"`
	Incorrect    int `json:"incorrect"`
	Rejected     int `json:"rejected"` // 429/503 admission rejections
	BudgetErrors int `json:"budget_errors,omitempty"`
	// Exhausted counts fault-injected requests whose retry budget ran out
	// (a typed server-side abort — the accepted faulted outcome besides a
	// verified answer; a silent wrong answer is never accepted).
	Exhausted int `json:"exhausted,omitempty"`
	Errors    int `json:"errors"`
	// Coalesced counts OK responses that were served by a shared run.
	Coalesced int `json:"coalesced"`

	RPS float64 `json:"rps"`
}

// BatchWin is the acceptance-criterion measurement: requests/sec of the
// batch-win profile's identical top-k load with coalescing off vs on.
type BatchWin struct {
	UnbatchedRPS float64 `json:"unbatched_rps"`
	BatchedRPS   float64 `json:"batched_rps"`
	Ratio        float64 `json:"ratio"`
}

// BenchReport is what a profile run measured against a live mcbd: verified
// throughput per (phase, op, mode) and the batch win. Latency is the
// benchmark's to measure (benchmark/), timed from each request's due time.
type BenchReport struct {
	Profile  string       `json:"profile"`
	Entries  []BenchEntry `json:"entries"`
	BatchWin *BatchWin    `json:"batch_win,omitempty"`
}
