package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mcbnet/internal/core"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeResponse(t *testing.T, raw []byte) Response {
	t.Helper()
	var out Response
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode response: %v (%s)", err, raw)
	}
	return out
}

// TestServerEndpoints drives all five operation endpoints and verifies every
// answer against the sequential oracle.
func TestServerEndpoints(t *testing.T) {
	srv, err := NewServer(Config{P: 24, K: 6, BatchWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		job := randomJob(rng)
		var op string
		req := Request{Values: job.Values}
		switch job.Op {
		case core.BatchSort:
			op = "sort"
			if job.Order == core.Ascending {
				req.Order = "asc"
			}
		case core.BatchTopK:
			op, req.K = "topk", job.TopK
		case core.BatchMedian:
			op = "median"
		case core.BatchRank:
			op, req.D = "rank", job.D
		case core.BatchMultiSelect:
			op, req.Ds = "multiselect", job.Ds
		}
		resp, raw := postJSON(t, ts.URL+"/v1/"+op, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trial %d %s: HTTP %d: %s", trial, op, resp.StatusCode, raw)
		}
		out := decodeResponse(t, raw)
		if out.Op != op {
			t.Errorf("trial %d: op echoed as %q, want %q", trial, out.Op, op)
		}
		if want := oracleJob(job); !equalVals(out.Values, want) {
			t.Fatalf("trial %d %s: got %v want %v", trial, op, out.Values, want)
		}
		if out.Cycles <= 0 {
			t.Errorf("trial %d %s: response reports no cycles", trial, op)
		}
	}
}

// TestServerValidation pins the 400 taxonomy.
func TestServerValidation(t *testing.T) {
	srv, err := NewServer(Config{P: 16, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name string
		op   string
		req  Request
	}{
		{"empty values", "sort", Request{}},
		{"bad order", "sort", Request{Values: []int64{1, 2}, Order: "sideways"}},
		{"k too large", "topk", Request{Values: []int64{1, 2}, K: 3}},
		{"k zero", "topk", Request{Values: []int64{1, 2}}},
		{"d out of range", "rank", Request{Values: []int64{1, 2}, D: 0}},
		{"empty ds", "multiselect", Request{Values: []int64{1, 2}}},
		{"ds out of range", "multiselect", Request{Values: []int64{1, 2}, Ds: []int{5}}},
		{"fault rate out of range", "sort", Request{Values: []int64{1, 2}, FaultRate: 1.5}},
	}
	for _, c := range cases {
		resp, raw := postJSON(t, ts.URL+"/v1/"+c.op, c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400 (%s)", c.name, resp.StatusCode, raw)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Kind != "bad_request" {
			t.Errorf("%s: error body %s (err %v)", c.name, raw, err)
		}
	}

	// Unknown JSON fields are rejected (the decoder disallows them).
	resp, _ := postJSON(t, ts.URL+"/v1/sort", map[string]any{"values": []int64{1}, "bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestServerBudget maps a cycle budget the run exceeds onto HTTP 422.
func TestServerBudget(t *testing.T) {
	srv, err := NewServer(Config{P: 16, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v1/sort", Request{Values: []int64{5, 3, 9, 1}, BudgetCycles: 1})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("HTTP %d, want 422 (%s)", resp.StatusCode, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Kind != "budget" {
		t.Fatalf("error body %s (err %v)", raw, err)
	}
}

// TestServerFaulted runs a fault-injected request through the recovery layer.
func TestServerFaulted(t *testing.T) {
	srv, err := NewServer(Config{P: 16, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	vals := []int64{9, 2, 7, 2, 5, 1, 8, 3}
	resp, raw := postJSON(t, ts.URL+"/v1/median", Request{Values: vals, FaultRate: 0.002, FaultSeed: 7, Retries: 8})
	if resp.StatusCode == http.StatusInternalServerError {
		t.Skipf("retries exhausted (typed abort): %s", raw)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	out := decodeResponse(t, raw)
	if len(out.Values) != 1 || out.Values[0] != 5 {
		t.Fatalf("median of %v: got %v, want [5]", vals, out.Values)
	}
	if out.Attempts < 1 {
		t.Errorf("faulted response reports no attempts")
	}
	if out.Batched {
		t.Errorf("faulted request must not coalesce")
	}
}

// TestServerDraining: after Close, operations answer 503 with the draining
// kind and a Retry-After header, and healthz flips unhealthy.
func TestServerDraining(t *testing.T) {
	srv, err := NewServer(Config{P: 16, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srv.Close()
	resp, raw := postJSON(t, ts.URL+"/v1/sort", Request{Values: []int64{3, 1, 2}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503 (%s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Kind != "draining" {
		t.Fatalf("error body %s (err %v)", raw, err)
	}
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after Close: HTTP %d, want 503", hr.StatusCode)
	}
}

// TestServerSaturated429: with the single instance pinned by a heavy run and
// the depth-1 queue full, the next request must answer 429 with a
// Retry-After header — and the queued request must still answer correctly.
func TestServerSaturated429(t *testing.T) {
	for attempt := 0; attempt < 5; attempt++ {
		srv, err := NewServer(Config{Instances: 1, P: 32, K: 1, QueueDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		pool := srv.Pool()

		blockerDone := make(chan int, 1)
		go func() {
			resp, _ := postJSON(t, ts.URL+"/v1/sort", Request{Values: heavySortJob(6000).Values, NoBatch: true})
			blockerDone <- resp.StatusCode
		}()
		deadline := time.Now().Add(2 * time.Second)
		for {
			st := pool.Stats()
			if st.Accepted >= 1 && st.QueueDepth == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("blocker never admitted")
			}
			time.Sleep(100 * time.Microsecond)
		}
		fillerDone := make(chan Response, 1)
		go func() {
			resp, raw := postJSON(t, ts.URL+"/v1/topk", Request{Values: []int64{4, 8, 1, 6}, K: 2})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("filler: HTTP %d: %s", resp.StatusCode, raw)
				fillerDone <- Response{}
				return
			}
			fillerDone <- decodeResponse(t, raw)
		}()
		for pool.Stats().QueueDepth == 0 {
			if time.Now().After(deadline) {
				t.Fatal("filler never queued")
			}
			time.Sleep(100 * time.Microsecond)
		}

		resp, raw := postJSON(t, ts.URL+"/v1/median", Request{Values: []int64{1, 2, 3}})
		saturated := resp.StatusCode == http.StatusTooManyRequests
		if saturated {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After header")
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || er.Kind != "saturated" || er.RetryAfterMS < 50 {
				t.Errorf("429 body %s (err %v)", raw, err)
			}
		} else if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe: HTTP %d: %s", resp.StatusCode, raw)
		}

		filler := <-fillerDone
		if !equalVals(filler.Values, []int64{8, 6}) {
			t.Fatalf("queued request answered %v during saturation, want [8 6]", filler.Values)
		}
		if code := <-blockerDone; code != http.StatusOK {
			t.Fatalf("blocker: HTTP %d", code)
		}
		ts.Close()
		srv.Close()
		if saturated {
			return
		}
		// Blocker finished before the probe: retry with a fresh server.
	}
	t.Fatal("never observed 429 in 5 attempts")
}

// TestServerStats exposes pool counters over /v1/stats.
func TestServerStats(t *testing.T) {
	srv, err := NewServer(Config{P: 16, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/sort", Request{Values: []int64{3, 1, 2}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Completed < 3 || st.P != 16 || st.K != 4 || st.QueueCap == 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestRunProfileSmoke drives the load generator end-to-end against an
// in-process server with a fast custom profile: report populated, zero
// violations, batch-win derived.
func TestRunProfileSmoke(t *testing.T) {
	srv, err := NewServer(Config{Instances: 2, P: 24, K: 6, BatchWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	profile := Profile{
		Name: "test-mini",
		Seed: 9,
		Phases: []Phase{
			{Name: "unbatched", Duration: Duration(250 * time.Millisecond), Concurrency: 6,
				Mix: []OpSpec{{Op: "topk", N: 24, TopK: 4, NoBatch: true}}},
			{Name: "batched", Duration: Duration(250 * time.Millisecond), Concurrency: 6,
				Mix: []OpSpec{{Op: "topk", N: 24, TopK: 4}}},
			{Name: "mixed", Duration: Duration(250 * time.Millisecond), Concurrency: 4,
				Mix: allOpsMix(24)},
		},
	}
	report, violations, err := RunProfile(profile, LoadOptions{Addr: ts.URL, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("violations: %v", violations)
	}
	if len(report.Entries) == 0 {
		t.Fatalf("report %+v", report)
	}
	total := 0
	for _, e := range report.Entries {
		if e.Incorrect > 0 {
			t.Errorf("%s/%s/%s: %d incorrect", e.Phase, e.Op, e.Mode, e.Incorrect)
		}
		total += e.Requests
	}
	if total == 0 {
		t.Fatal("no requests recorded")
	}
	if report.BatchWin == nil {
		t.Fatal("no batch-win derived from unbatched+batched topk phases")
	}
	t.Logf("batch win: %.2fx (%.1f -> %.1f rps)", report.BatchWin.Ratio, report.BatchWin.UnbatchedRPS, report.BatchWin.BatchedRPS)
}

// TestBuiltinProfilesValidate keeps every builtin profile well-formed.
func TestBuiltinProfilesValidate(t *testing.T) {
	names := BuiltinProfileNames()
	if len(names) < 5 {
		t.Fatalf("builtin profiles: %v", names)
	}
	for _, name := range names {
		p, err := BuiltinProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile %q names itself %q", name, p.Name)
		}
	}
	if _, err := BuiltinProfile("nope"); err == nil {
		t.Error("unknown profile name accepted")
	}
}

// TestProfileJSONRoundTrip keeps profile files loadable.
func TestProfileJSONRoundTrip(t *testing.T) {
	p, err := BuiltinProfile("smoke-mixed")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("%v\n%s", err, data)
	}
	if back.Phases[0].Duration != p.Phases[0].Duration {
		t.Errorf("duration round-trip: %v != %v", back.Phases[0].Duration, p.Phases[0].Duration)
	}
}
