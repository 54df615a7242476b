package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcbnet/internal/core"
	"mcbnet/internal/dist"
	"mcbnet/internal/service"
)

// svcOp is one entry of a service traffic mix.
type svcOp struct {
	op      string
	weight  int
	order   string // sort only
	topK    int    // topk only
	ranks   int    // multiselect only
	faulted bool   // served solo through verify-and-retry under injected faults
}

// svcSpec is an HTTP workload: a traffic mix at one input size, an
// open-loop rate and the p99 latency limit the rate must meet.
type svcSpec struct {
	n          int
	mix        []svcOp
	openRPS    float64
	p99LimitMS float64
}

// svcSmallSpec offers 1000 rps: the pool's queue holds 64 requests, so a
// stall of the shared machine sheds requests once it outlasts 64 arrivals.
// At 1500 rps that took 43 ms and happened in noisy hours; at 1000 rps it
// takes 64 ms.
var svcSmallSpec = svcSpec{
	n: 32, openRPS: 1000, p99LimitMS: 25,
	mix: []svcOp{{op: "topk", weight: 60, topK: 8}, {op: "rank", weight: 40}},
}

// svcMixedSpec spreads 99% over the six plain op variants (33/200 each) and
// sends 1% (2/200) as faulted sorts. A faulted sort ends the batch being
// collected and then holds the pool for a solo verified run, so the requests
// behind it wait; at 5% two or three such runs often fell close together,
// and how often they did decided the run's p99 (README.md, Sizing).
var svcMixedSpec = svcSpec{
	n: 256, openRPS: 250, p99LimitMS: 100,
	mix: []svcOp{
		{op: "sort", weight: 33, order: "desc"},
		{op: "sort", weight: 33, order: "asc"},
		{op: "topk", weight: 33, topK: 8},
		{op: "median", weight: 33},
		{op: "rank", weight: 33},
		{op: "multiselect", weight: 33, ranks: 3},
		{op: "sort", weight: 2, order: "desc", faulted: true},
	},
}

// Faulted requests: per-delivery drop/corruption rate and retry budget.
const (
	faultRate    = 0.00002
	faultRetries = 6
)

// Shares of a service run's measuring time: warm-up, open loop, closed loop
// (2 : 20 : 10), and the closed loop's outstanding requests.
const (
	warmShare   = 2.0 / 32
	openShare   = 20.0 / 32
	closedShare = 10.0 / 32
	closedDepth = 16
)

// maxGenLagP99MS is the generator lateness beyond which an open-loop run is
// marked invalid: the schedule it claims to have offered was not offered.
// Measured lateness on 2 CPUs stays near 0.1 ms at p99 (README.md).
const maxGenLagP99MS = 5

// Input streams: each phase draws its requests from its own stream, so a
// phase's inputs do not depend on how many requests an earlier phase sent.
const (
	streamSetup = iota + 1
	streamWarm
	streamOpen
	streamClosed
	streamReplay
)

// tailWindow splits the open loop for p99_ms, the median of the windows'
// p99s. A shared machine stalls the service for 50-100 ms a few times in a
// run; each stall delays the requests due during it, and they fill the
// run's top 1%. A half-second window confines a stall to the windows it
// falls in, and the median over the windows ignores them. Over eight seeds
// the spread of svc-mixed's p99 was 0.07 with half-second windows, 0.09
// with one-second and 0.21 without windows (README.md, Sizing).
const tailWindow = 500 * time.Millisecond

// closedPool is how many distinct requests the closed loop cycles through.
const closedPool = 2048

// idHeader carries a request's sequence number in traced runs, so the
// server-side timing can be joined with the client's.
const idHeader = "X-Bench-Id"

// call is one generated request.
type call struct {
	op      string
	class   string // "sort" or "select"
	faulted bool
	req     service.Request
	body    []byte
}

// mixSeed derives the generator state of request i of a stream.
func mixSeed(seed, stream uint64, i int) uint64 {
	return seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ uint64(i)*0x94d049bb133111eb
}

// calls generates requests [from, from+count) of a stream. With plainOnly,
// faulted entries are left out of the mix (a core.RunBatch replay never
// sees them: the pool serves them solo).
func (s *svcSpec) calls(seed, stream uint64, from, count int, plainOnly bool) []*call {
	mix := s.mix
	if plainOnly {
		mix = slices.DeleteFunc(slices.Clone(mix), func(o svcOp) bool { return o.faulted })
	}
	total := 0
	for _, o := range mix {
		total += o.weight
	}
	out := make([]*call, count)
	for i := range out {
		rng := dist.NewRNG(mixSeed(seed, stream, from+i))
		r := rng.Intn(total)
		for _, o := range mix {
			if r < o.weight {
				out[i] = s.newCall(rng, o)
				break
			}
			r -= o.weight
		}
	}
	return out
}

// setupCall is the set-up's first request: always the mix's first op, with
// values from the seed. Ops differ in cost by up to tenfold on a cold
// process, so a drawn op would make setup_s depend on the seed.
func (s *svcSpec) setupCall(seed uint64) *call {
	return s.newCall(dist.NewRNG(mixSeed(seed, streamSetup, 0)), s.mix[0])
}

func (s *svcSpec) newCall(rng *dist.RNG, op svcOp) *call {
	values := make([]int64, s.n)
	for j := range values {
		values[j] = int64(rng.Intn(1 << 20))
	}
	c := &call{op: op.op, class: "select", faulted: op.faulted}
	c.req = service.Request{Values: values, Order: op.order}
	switch op.op {
	case "sort":
		c.class = "sort"
	case "topk":
		c.class = "sort"
		c.req.K = op.topK
	case "rank":
		c.req.D = 1 + rng.Intn(s.n)
	case "multiselect":
		c.req.Ds = make([]int, op.ranks)
		for j := range c.req.Ds {
			c.req.Ds[j] = 1 + rng.Intn(s.n)
		}
	}
	if op.faulted {
		c.req.FaultRate = faultRate
		c.req.Retries = faultRetries
		c.req.FaultSeed = rng.Next()
	}
	body, err := json.Marshal(&c.req)
	if err != nil {
		panic(err) // a Request of ints and strings always encodes
	}
	c.body = body
	return c
}

// oracle computes an HTTP op's expected answer from a sorted copy.
func oracle(op string, req *service.Request) []int64 {
	desc := slices.Clone(req.Values)
	slices.SortFunc(desc, func(a, b int64) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		}
		return 0
	})
	switch op {
	case "sort":
		if req.Order == "asc" {
			slices.Reverse(desc)
		}
		return desc
	case "topk":
		return desc[:req.K]
	case "median":
		return []int64{desc[(len(desc)+1)/2-1]}
	case "rank":
		return []int64{desc[req.D-1]}
	case "multiselect":
		out := make([]int64, len(req.Ds))
		for i, d := range req.Ds {
			out[i] = desc[d-1]
		}
		return out
	}
	return nil
}

// sample is one completed request.
type sample struct {
	c      *call
	id     int
	lat    time.Duration // from the due time (open loop) or the send (closed)
	rtt    time.Duration // from the send
	lag    time.Duration // generator lateness (open loop)
	at     time.Duration // completion, from the start of the closed loop
	status int
	err    error
	resp   service.Response
	out    outcome
}

// judge classifies a completed request against the oracle.
func (s *sample) judge() outcome {
	switch {
	case s.err != nil:
		s.out = outErrored
	case s.status == http.StatusOK:
		s.out = outIncorrect
		if slices.Equal(s.resp.Values, oracle(s.c.op, &s.c.req)) {
			s.out = outOK
		}
	case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
		s.out = outRejected
	case s.c.faulted && s.status >= http.StatusInternalServerError:
		s.out = outExhausted
	default:
		s.out = outErrored
	}
	return s.out
}

// svcHarness is the system under test of a service workload: mcbd's
// default pool behind an http.Server speaking HTTP/1 and unencrypted
// HTTP/2, and one h2c client connection per CPU.
type svcHarness struct {
	srv     *service.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	clients []*http.Client
	trs     []*http.Transport
	timed   *timedHandler // traced runs only
}

// timedHandler wraps Server.ServeHTTP and records each request's server
// time by its idHeader.
type timedHandler struct {
	h   http.Handler
	mu  sync.Mutex
	dur map[int]time.Duration
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(start)
	if id, err := strconv.Atoi(r.Header.Get(idHeader)); err == nil {
		t.mu.Lock()
		t.dur[id] = d
		t.mu.Unlock()
	}
}

func (t *timedHandler) get(id int) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.dur[id]
	return d, ok
}

func startSvc(traced bool) (*svcHarness, error) {
	// mcbd's defaults: instances=1 p=32 k=8 engine=auto batch-window=2ms
	// queue=64.
	srv, err := service.NewServer(service.Config{Instances: 1, P: 32, K: 8, BatchWindow: 2 * time.Millisecond, QueueDepth: 64})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &svcHarness{srv: srv, served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	var handler http.Handler = srv
	if traced {
		h.timed = &timedHandler{h: srv, dur: map[int]time.Duration{}}
		handler = h.timed
	}
	sp := new(http.Protocols)
	sp.SetHTTP1(true)
	sp.SetUnencryptedHTTP2(true)
	h.hs = &http.Server{Handler: handler, Protocols: sp, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	cp := new(http.Protocols)
	cp.SetUnencryptedHTTP2(true)
	for i := 0; i < runtime.NumCPU(); i++ {
		tr := &http.Transport{Protocols: cp}
		h.trs = append(h.trs, tr)
		h.clients = append(h.clients, &http.Client{Transport: tr, Timeout: 60 * time.Second})
	}
	return h, nil
}

// close drops the client connections first, so that Shutdown finds the
// server's connections idle instead of polling until they are.
func (h *svcHarness) close() error {
	for _, tr := range h.trs {
		tr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.served
	h.srv.Close()
	return err
}

// send posts one request on client connection conn and decodes the answer;
// the caller times it.
func (h *svcHarness) send(ctx context.Context, conn int, c *call, id int) sample {
	s := sample{c: c, id: id}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/v1/"+c.op, bytes.NewReader(c.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if h.timed != nil {
		req.Header.Set(idHeader, strconv.Itoa(id))
	}
	r, err := h.clients[conn%len(h.clients)].Do(req)
	if err != nil {
		s.err = err
		return s
	}
	defer r.Body.Close()
	s.status = r.StatusCode
	if r.StatusCode != http.StatusOK {
		_, s.err = io.Copy(io.Discard, r.Body)
		return s
	}
	if err := json.NewDecoder(r.Body).Decode(&s.resp); err != nil {
		s.err = fmt.Errorf("decode response: %w", err)
	}
	return s
}

// openLoop calls send(i) at start + i/rate for i in [0, n), each in its own
// goroutine whatever the state of earlier calls, and times each call from
// its due time: a stall then shows in every request it delays.
func openLoop(n int, rate float64, send func(i int) sample) []sample {
	samples := make([]sample, n)
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			s := send(i)
			done := time.Now()
			s.lat, s.rtt, s.lag = done.Sub(due), done.Sub(sent), lag
			samples[i] = s
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop keeps depth calls outstanding until dur has passed: each
// worker makes its next call when the previous one returns. It returns the
// samples and the time until the last one ended.
func closedLoop(depth int, dur time.Duration, send func(worker, i int) sample) ([]sample, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for time.Now().Before(deadline) {
				sent := time.Now()
				s := send(w, int(next.Add(1)-1))
				s.at = time.Since(start)
				s.lat = s.at - sent.Sub(start)
				s.rtt = s.lat
				local = append(local, s)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// openCalls runs an open loop over calls on the harness's connections.
func (h *svcHarness) openCalls(ctx context.Context, calls []*call, rate float64, idBase int) []sample {
	return openLoop(len(calls), rate, func(i int) sample { return h.send(ctx, i, calls[i], idBase+i) })
}

// capacityWindow is the window of the closed loop's throughput median.
const capacityWindow = 500 * time.Millisecond

// capacity is the median, over the closed loop's whole windows, of verified
// answers per second: a transient stall of a shared machine moves one
// window, not the metric. A loop shorter than one window (smoke runs)
// counts every answer over its whole length.
func capacity(closed []sample, dur, elapsed time.Duration) float64 {
	window, n := capacityWindow, int(dur/capacityWindow)
	if n == 0 {
		window, n = elapsed, 1
	}
	rates := make([]float64, n)
	for i := range closed {
		if w := int(closed[i].at / window); closed[i].out == outOK && w < n {
			rates[w]++
		}
	}
	for i := range rates {
		rates[i] /= window.Seconds()
	}
	return median(rates)
}

func runSvcSmall(ctx context.Context, rc runConfig) (*childResult, error) {
	return runSvc(ctx, rc, &svcSmallSpec)
}

func runSvcMixed(ctx context.Context, rc runConfig) (*childResult, error) {
	return runSvc(ctx, rc, &svcMixedSpec)
}

// runSvc sets the service up (server, listener, connections, first verified
// answer), then warms it, runs the open loop and the closed loop. A traced
// run also profiles the CPU over both loops, times the server side of every
// open-loop request and replays core.RunBatch at the observed batch size.
func runSvc(ctx context.Context, rc runConfig, spec *svcSpec) (_ *childResult, err error) {
	res := &childResult{Metrics: metricSet{}, Samples: map[string]int{}}
	setupStart := time.Now()
	h, err := startSvc(rc.traced)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := h.close(); cerr != nil && err == nil {
			err = fmt.Errorf("shut the server down: %w", cerr)
		}
	}()
	s := h.send(ctx, 0, spec.setupCall(rc.seed), -1)
	res.Counts.note(s.judge())
	if s.out != outOK {
		return nil, fmt.Errorf("first request failed: status %d err %v", s.status, s.err)
	}
	res.SetupS = time.Since(setupStart).Seconds()
	if rc.setupOnly {
		return res, nil
	}

	warmDur, openDur, closedDur := phaseDur(rc, warmShare), phaseDur(rc, openShare), phaseDur(rc, closedShare)
	warm := h.openCalls(ctx, spec.calls(rc.seed, streamWarm, 0, int(spec.openRPS*warmDur.Seconds()), false), spec.openRPS, 1e8)
	for i := range warm {
		res.Counts.note(warm[i].judge())
	}

	nOpen := max(1, int(spec.openRPS*openDur.Seconds()))
	openCalls := spec.calls(rc.seed, streamOpen, 0, nOpen, false)
	pool := spec.calls(rc.seed, streamClosed, 0, closedPool, false)
	var prof *cpuProfile
	if rc.traced {
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	before := h.srv.Pool().Stats()
	open := h.openCalls(ctx, openCalls, spec.openRPS, 2e8)
	after := h.srv.Pool().Stats()
	closed, closedElapsed := closedLoop(closedDepth, closedDur, func(w, i int) sample {
		return h.send(ctx, w, pool[i%len(pool)], 3e8+i)
	})
	var shares map[string]float64
	if prof != nil {
		if shares, err = prof.stop(); err != nil {
			return nil, err
		}
	}

	var lat, lag, sortLat, selLat []float64
	windows := make([][]float64, max(1, int(openDur/tailWindow)))
	for i := range open {
		s := &open[i]
		res.Counts.note(s.judge())
		lag = append(lag, ms(s.lag))
		if s.out != outOK {
			continue
		}
		lat = append(lat, ms(s.lat))
		w := i * len(windows) / len(open)
		windows[w] = append(windows[w], ms(s.lat))
		if s.c.class == "sort" {
			sortLat = append(sortLat, ms(s.lat))
		} else {
			selLat = append(selLat, ms(s.lat))
		}
	}
	for i := range closed {
		res.Counts.note(closed[i].judge())
	}
	p99 := windowedP99(windows)
	m := res.Metrics
	m.set("p50_ms", pct(lat, 0.50))
	m.set("p99_ms", p99)
	m.set("capacity_rps", capacity(closed, closedDur, closedElapsed))
	m.set("sort_s", pct(sortLat, 0.50)/1000)
	m.set("select_s", pct(selLat, 0.50)/1000)
	res.Samples["warmup"] = len(warm)
	res.Samples["open"] = len(open)
	res.Samples["open_ok"] = len(lat)
	res.Samples["closed"] = len(closed)

	if p99 > spec.p99LimitMS {
		res.Invalid = append(res.Invalid, fmt.Sprintf("open-loop p99 %.2f ms breaks the %.0f ms limit", p99, spec.p99LimitMS))
	}
	if lagP99 := pct(lag, 0.99); lagP99 > maxGenLagP99MS {
		res.Invalid = append(res.Invalid, fmt.Sprintf("generator p99 lateness %.2f ms exceeds %d ms: the offered rate was not met", lagP99, maxGenLagP99MS))
	}
	if !rc.traced {
		return res, nil
	}

	m.set("gen.lag_p50_ms", pct(lag, 0.50))
	m.set("gen.lag_p99_ms", pct(lag, 0.99))
	var rtt, server, outside, encode, elapsed, batch []float64
	cycles := map[string][]float64{}
	msgs := map[string][]float64{}
	for i := range open {
		s := &open[i]
		if s.out != outOK {
			continue
		}
		rtt = append(rtt, ms(s.rtt))
		elapsed = append(elapsed, s.resp.ElapsedMS)
		if sd, ok := h.timed.get(s.id); ok {
			server = append(server, ms(sd))
			outside = append(outside, ms(s.rtt-sd))
			encode = append(encode, ms(sd)-s.resp.ElapsedMS)
		}
		if !s.c.faulted {
			batch = append(batch, float64(max(1, s.resp.BatchSize)))
		}
		cycles[s.c.class] = append(cycles[s.c.class], float64(s.resp.Cycles))
		msgs[s.c.class] = append(msgs[s.c.class], float64(s.resp.Messages))
	}
	m.set("http.rtt_p50_ms", pct(rtt, 0.50))
	m.set("http.server_p50_ms", pct(server, 0.50))
	m.set("http.outside_p50_ms", pct(outside, 0.50))
	m.set("http.encode_p50_ms", pct(encode, 0.50))
	m.set("service.elapsed_p50_ms", pct(elapsed, 0.50))
	m.set("service.elapsed_p99_ms", pct(elapsed, 0.99))
	jobs := float64(after.Completed + after.Failed - before.Completed - before.Failed)
	m.set("service.batch_size_mean", jobs/float64(after.Runs-before.Runs))
	m.set("service.coalesced_share", 100*float64(after.CoalescedJobs-before.CoalescedJobs)/jobs)
	for _, k := range jobKinds {
		m.set("mcb.cycles_per_run."+k, mean(cycles[k]))
		m.set("mcb.messages_per_run."+k, mean(msgs[k]))
	}
	for mod, share := range shares {
		m.set("cpu."+mod, share)
	}

	replay, n, cnt, err := replayRunBatch(h.srv.Pool().Config(), spec, rc.seed, int(pct(batch, 0.50)), phaseDur(rc, 1.0/16))
	if err != nil {
		return nil, err
	}
	res.Counts.add(cnt)
	m.set("core.runbatch_p50_ms", replay)
	m.set("service.wait_est_p50_ms", pct(elapsed, 0.50)-replay)
	res.Samples["replay"] = n
	res.Samples["server_timed"] = len(server)
	res.Samples["cpu_profile"] = prof.samples
	return res, nil
}

// replayRunBatch calls core.RunBatch directly on batches of the given size
// drawn from the workload's coalescible mix, for at least dur and five
// batches, and returns the median batch time in ms.
func replayRunBatch(cfg service.Config, spec *svcSpec, seed uint64, size int, dur time.Duration) (float64, int, counts, error) {
	var cnt counts
	var times []float64
	size = max(1, size)
	start := time.Now()
	for b := 0; len(times) < 5 || time.Since(start) < dur; b++ {
		calls := spec.calls(seed, streamReplay, b*size, size, true)
		jobs := make([]core.BatchJob, len(calls))
		for i, c := range calls {
			jobs[i] = batchJob(c)
		}
		t0 := time.Now()
		results, err := core.RunBatch(jobs, core.BatchOptions{P: cfg.P, K: cfg.K, Engine: cfg.Engine, StallTimeout: cfg.StallTimeout})
		d := time.Since(t0)
		if err != nil {
			return 0, 0, cnt, fmt.Errorf("RunBatch replay: %w", err)
		}
		times = append(times, ms(d))
		for i, r := range results {
			switch {
			case r.Err != nil:
				cnt.note(outErrored)
			case slices.Equal(r.Values, oracle(calls[i].op, &calls[i].req)):
				cnt.note(outOK)
			default:
				cnt.note(outIncorrect)
			}
		}
	}
	return pct(times, 0.50), len(times), cnt, nil
}

// batchJob is the core.BatchJob the service builds from a plain request.
func batchJob(c *call) core.BatchJob {
	j := core.BatchJob{Values: c.req.Values}
	switch c.op {
	case "sort":
		j.Op = core.BatchSort
		if c.req.Order == "asc" {
			j.Order = core.Ascending
		}
	case "topk":
		j.Op, j.TopK = core.BatchTopK, c.req.K
	case "median":
		j.Op = core.BatchMedian
	case "rank":
		j.Op, j.D = core.BatchRank, c.req.D
	case "multiselect":
		j.Op, j.Ds = core.BatchMultiSelect, c.req.Ds
	}
	return j
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
