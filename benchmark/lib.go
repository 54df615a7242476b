package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mcbnet/internal/checkpoint"
	"mcbnet/internal/core"
	"mcbnet/internal/dist"
	"mcbnet/internal/matrix"
	"mcbnet/internal/mcb"
	"mcbnet/internal/schedule"
	"mcbnet/internal/transport"
	"mcbnet/internal/transport/tcp"
)

// libShape is a job workload's network and input size.
type libShape struct{ p, k, n int }

// lib-sharded runs at p=1024, where mcb.EngineAuto picks the sharded engine.
// n=16384 keeps a sort+median pair near 5 s on 2 CPUs, so a run fits its
// measuring time (README.md has the sizing).
var libShardedShape = libShape{p: 1024, k: 32, n: 16384}

// peer-tcp runs at n=1024: a median selection costs 0.3-0.4 s at any n from
// 1024 to 4096 (its filter rounds are round trips), while the sort takes
// 0.6 s instead of 2.2 s, so a run holds about 29 pairs instead of 10 and
// its medians rest on three times the jobs (README.md has the sizing).
var peerTCPShape = libShape{p: 16, k: 4, n: 1024}

// pairsPerWindow groups a job workload's pairs for p99_ms, the median over
// the groups of each group's p99 (its slowest pair), as the service
// workloads' p99_ms takes the median over time windows: a stall of the
// shared machine slows the pairs of one group, not the metric.
const pairsPerWindow = 5

// peers is the number of TCP peer processes' worth of clients in peer-tcp.
const peers = 2

// scaled shrinks n for smoke runs, keeping at least one element per
// processor.
func (s libShape) scaled(scale float64) libShape {
	s.n = max(s.p, int(float64(s.n)*scale))
	return s
}

// inputs is job j's distributed input: n uniform values spread nearly
// evenly over p processors, drawn from the seed.
func (s libShape) inputs(seed uint64, j int) [][]int64 {
	return dist.Values(dist.NewRNG(mixSeed(seed, 7, j)), dist.NearlyEven(s.n, s.p))
}

// driver is one copy of the algorithm driver: the only one in process, or
// one per peer of a TCP group (every peer runs the same driver over the
// same inputs, as cmd/mcbpeer does).
type driver struct {
	tr    transport.Transport // nil: in process
	probe *probe              // traced runs only
}

// group is the system under test of a job workload.
type group struct {
	shape   libShape
	drivers []*driver
	close   func() error
}

// probe times one driver's layers from outside: a Transport wrapper around
// its engine rounds and boundary exchanges, a checkpoint.Store wrapper, the
// Verifier hooks, and (TCP) a counting net.Conn on its links. The driver
// goroutine alone touches the layers; the wire counters are atomic because
// the client's link goroutines update them.
type probe struct {
	layers
	wireB, wireW atomic.Int64
}

// layers is what one job spent in each layer, as seen by one driver.
type layers struct {
	runs     []time.Duration
	cycles   int64
	messages int64
	exch     []time.Duration
	verify   time.Duration
	saves    int
	saveDur  time.Duration
	bytes    int64
}

// timedTransport wraps a driver's transport and records every engine round
// and exchange into its probe.
type timedTransport struct {
	transport.Transport
	p *probe
}

func (t timedTransport) Run(ctx context.Context, cfg mcb.Config, progs []func(mcb.Node)) (*mcb.Result, error) {
	start := time.Now()
	res, err := t.Transport.Run(ctx, cfg, progs)
	t.p.runs = append(t.p.runs, time.Since(start))
	if res != nil {
		t.p.cycles += res.Stats.Cycles
		t.p.messages += res.Stats.Messages
	}
	return res, err
}

func (t timedTransport) Exchange(tag string, blobs [][]byte) ([][]byte, error) {
	start := time.Now()
	out, err := t.Transport.Exchange(tag, blobs)
	t.p.exch = append(t.p.exch, time.Since(start))
	return out, err
}

// timedStore wraps a checkpoint store; snapshot sizes come from
// checkpoint.Encode outside the timed Save.
type timedStore struct {
	checkpoint.Store
	p *probe
}

func (s timedStore) Save(snap *checkpoint.Snapshot) error {
	start := time.Now()
	err := s.Store.Save(snap)
	s.p.saveDur += time.Since(start)
	s.p.saves++
	if b, eerr := checkpoint.Encode(snap); eerr == nil {
		s.p.bytes += int64(len(b))
	}
	return err
}

// countingConn counts the bytes and write calls on one TCP link.
type countingConn struct {
	net.Conn
	p *probe
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.p.wireB.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.p.wireB.Add(int64(n))
	c.p.wireW.Add(1)
	return n, err
}

// jobObs is one verified job: its wall time and, traced, its layer split
// (taken from the first driver; wire counts add up every driver's links).
type jobObs struct {
	wall time.Duration
	layers
	runSum       time.Duration
	wireB, wireW int64
	cols, colLen int
}

var retryPolicy = mcb.RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Millisecond}

// job runs one checkpointed sort or median selection on every driver at
// once and checks each answer with core.VerifySort / core.VerifySelect,
// outside the timed section.
func (g *group) job(ctx context.Context, kind string, in [][]int64) (jobObs, outcome) {
	n := len(g.drivers)
	outs := make([][][]int64, n)
	vals := make([]int64, n)
	reps := make([]*core.Report, n)
	errs := make([]error, n)
	var wireB0, wireW0 int64
	for _, d := range g.drivers {
		if d.probe != nil {
			wireB0 += d.probe.wireB.Load()
			wireW0 += d.probe.wireW.Load()
			d.probe.layers = layers{}
		}
	}
	d := (g.shape.n + 1) / 2
	var wg sync.WaitGroup
	start := time.Now()
	for i, drv := range g.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr transport.Transport = drv.tr
			var store checkpoint.Store = checkpoint.NewMem()
			retry := retryPolicy
			retry.JitterSeed = uint64(i + 1)
			if p := drv.probe; p != nil {
				if tr == nil {
					tr = transport.Local{}
				}
				tr, store = timedTransport{tr, p}, timedStore{store, p}
			}
			switch kind {
			case "sort":
				opts := core.SortOptions{K: g.shape.k, Retry: retry, Checkpoints: store, Transport: tr, Ctx: ctx}
				if p := drv.probe; p != nil {
					opts.Verifier = func(in, out [][]int64, o core.Order) error {
						t := time.Now()
						err := core.VerifySort(in, out, o)
						p.verify += time.Since(t)
						return err
					}
				}
				outs[i], reps[i], errs[i] = core.SortWithRetry(in, opts)
			case "select":
				opts := core.SelectOptions{K: g.shape.k, D: d, Retry: retry, Checkpoints: store, Transport: tr, Ctx: ctx}
				if p := drv.probe; p != nil {
					opts.Verifier = func(in [][]int64, d int, v int64) error {
						t := time.Now()
						err := core.VerifySelect(in, d, v)
						p.verify += time.Since(t)
						return err
					}
				}
				vals[i], _, errs[i] = core.SelectWithRetry(in, opts)
			}
		}()
	}
	wg.Wait()
	obs := jobObs{wall: time.Since(start)}
	if r := reps[0]; r != nil {
		obs.cols, obs.colLen = r.Columns, r.ColumnLen
	}
	if p := g.drivers[0].probe; p != nil {
		obs.layers = p.layers
		for _, r := range p.runs {
			obs.runSum += r
		}
		for _, drv := range g.drivers {
			obs.wireB += drv.probe.wireB.Load()
			obs.wireW += drv.probe.wireW.Load()
		}
		obs.wireB -= wireB0
		obs.wireW -= wireW0
	}

	for i := range g.drivers {
		if err := errs[i]; err != nil {
			if mcb.Retryable(err) {
				return obs, outExhausted
			}
			return obs, outErrored
		}
		var verr error
		if kind == "sort" {
			verr = core.VerifySort(in, outs[i], core.Descending)
		} else {
			verr = core.VerifySelect(in, d, vals[i])
		}
		if verr != nil {
			return obs, outIncorrect
		}
	}
	return obs, outOK
}

func startLib(shape libShape, traced bool) (*group, error) {
	d := &driver{}
	if traced {
		d.probe = &probe{}
	}
	return &group{shape: shape, drivers: []*driver{d}, close: func() error { return nil }}, nil
}

// startPeers starts a sequencer and `peers` clients covering [0, p) on
// loopback, as the transport conformance suite's TCP group does; each client
// then drives its own copy of the driver, as mcbpeer processes do.
func startPeers(shape libShape, traced bool) (*group, error) {
	const job = "benchmark"
	seq, err := tcp.NewSequencer(tcp.SequencerOptions{Addr: "127.0.0.1:0", Job: job, P: shape.p})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = seq.Serve(ctx) // ends when every peer says bye, or on cancel
	}()
	g := &group{shape: shape}
	var clients []*tcp.Client
	g.close = func() error {
		// The peers say bye together (the sequencer ends a session on a
		// collective bye), then the sequencer goes regardless.
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = cl.Close() // best effort; the sequencer closes next
			}()
		}
		wg.Wait()
		err := seq.Close()
		cancel()
		<-served
		return err
	}
	for i := 0; i < peers; i++ {
		d := &driver{}
		opts := tcp.ClientOptions{
			Addr: seq.Addr(), Job: job, Name: fmt.Sprintf("peer%d", i),
			Lo: shape.p * i / peers, Hi: shape.p * (i + 1) / peers,
			JitterSeed: uint64(i + 1),
		}
		if traced {
			p := &probe{}
			d.probe = p
			opts.Wrap = func(c net.Conn) net.Conn { return countingConn{c, p} }
		}
		cl, err := tcp.NewClient(opts)
		if err != nil {
			g.close()
			return nil, err
		}
		clients = append(clients, cl)
		d.tr = cl
		g.drivers = append(g.drivers, d)
	}
	return g, nil
}

func runLibSharded(ctx context.Context, rc runConfig) (*childResult, error) {
	return runJobs(ctx, rc, libShardedShape.scaled(rc.scale), startLib)
}

func runPeerTCP(ctx context.Context, rc runConfig) (*childResult, error) {
	return runJobs(ctx, rc, peerTCPShape.scaled(rc.scale), startPeers)
}

// runJobs sets the group up and finishes its first (cold) sort, then runs
// sort+median pairs on fresh inputs until the next pair would overrun the
// measuring time (always at least one).
func runJobs(ctx context.Context, rc runConfig, shape libShape, start func(libShape, bool) (*group, error)) (_ *childResult, err error) {
	res := &childResult{Metrics: metricSet{}, Samples: map[string]int{}}
	setupStart := time.Now()
	in := shape.inputs(rc.seed, 0)
	g, err := start(shape, rc.traced)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := g.close(); cerr != nil && err == nil {
			err = fmt.Errorf("tear the group down: %w", cerr)
		}
	}()
	first, o := g.job(ctx, "sort", in)
	res.Counts.note(o)
	if o != outOK {
		return nil, errors.New("first sort failed")
	}
	res.SetupS = time.Since(setupStart).Seconds()
	res.Cols, res.ColLen = first.cols, first.colLen
	if rc.setupOnly {
		return res, nil
	}

	var prof *cpuProfile
	if rc.traced {
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	dur := phaseDur(rc, 1)
	var pairs []float64
	byKind := map[string][]jobObs{}
	begin := time.Now()
	var last time.Duration
	for j := 1; j == 1 || time.Since(begin)+last <= dur; j++ {
		in := shape.inputs(rc.seed, j)
		t0 := time.Now()
		ok := true
		for _, kind := range jobKinds {
			obs, o := g.job(ctx, kind, in)
			res.Counts.note(o)
			if o == outOK {
				byKind[kind] = append(byKind[kind], obs)
			} else {
				ok = false
			}
		}
		last = time.Since(t0)
		if ok {
			pairs = append(pairs, ms(last))
		}
	}
	elapsed := time.Since(begin)
	var shares map[string]float64
	if prof != nil {
		if shares, err = prof.stop(); err != nil {
			return nil, err
		}
	}

	windows := make([][]float64, max(1, len(pairs)/pairsPerWindow))
	for i, p := range pairs {
		w := i * len(windows) / len(pairs)
		windows[w] = append(windows[w], p)
	}
	m := res.Metrics
	m.set("p50_ms", pct(pairs, 0.50))
	m.set("p99_ms", windowedP99(windows))
	m.set("capacity_rps", float64(len(pairs))/elapsed.Seconds())
	for _, kind := range jobKinds {
		var walls []float64
		for _, j := range byKind[kind] {
			walls = append(walls, j.wall.Seconds())
		}
		m.set(kind+"_s", pct(walls, 0.50))
	}
	res.Samples["pairs"] = len(pairs)
	if !rc.traced {
		return res, nil
	}
	tcpGroup := g.drivers[0].tr != nil
	for _, kind := range jobKinds {
		setJobLayers(m, kind, byKind[kind], tcpGroup)
	}
	for mod, share := range shares {
		m.set("cpu."+mod, share)
	}
	res.Samples["cpu_profile"] = prof.samples
	return res, nil
}

// setJobLayers reports the per-layer split of one job kind: per-job times
// as medians over jobs, counts as means, per-cycle and per-run figures as
// ratios of sums.
func setJobLayers(m metricSet, kind string, jobs []jobObs, tcpGroup bool) {
	var verify, host, run, save, saves, bytes, exchanges, runs, exch []float64
	var cycles, messages, nRuns, wireB, wireW int64
	var runSum time.Duration
	for _, j := range jobs {
		verify = append(verify, j.verify.Seconds())
		host = append(host, (j.wall - j.runSum - j.verify - j.saveDur).Seconds())
		run = append(run, j.runSum.Seconds())
		save = append(save, j.saveDur.Seconds())
		saves = append(saves, float64(j.saves))
		bytes = append(bytes, float64(j.bytes))
		exchanges = append(exchanges, float64(len(j.exch)))
		for _, r := range j.runs {
			runs = append(runs, ms(r))
		}
		for _, e := range j.exch {
			exch = append(exch, ms(e))
		}
		cycles += j.cycles
		messages += j.messages
		nRuns += int64(len(j.runs))
		runSum += j.runSum
		wireB += j.wireB
		wireW += j.wireW
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m.set("core.verify_s."+kind, median(verify))
	m.set("core.host_s."+kind, median(host))
	m.set("mcb.cycles_per_run."+kind, per(float64(cycles), float64(nRuns)))
	m.set("mcb.messages_per_run."+kind, per(float64(messages), float64(nRuns)))
	m.set("mcb.run_s."+kind, median(run))
	m.set("mcb.ns_per_cycle."+kind, per(float64(runSum.Nanoseconds()), float64(cycles)))
	m.set("checkpoint.saves."+kind, mean(saves))
	m.set("checkpoint.save_s."+kind, median(save))
	m.set("checkpoint.bytes."+kind, mean(bytes))
	if !tcpGroup {
		return
	}
	m.set("tcp.run_p50_ms."+kind, pct(runs, 0.50))
	m.set("tcp.exchange_p50_ms."+kind, pct(exch, 0.50))
	m.set("tcp.exchanges."+kind, mean(exchanges))
	m.set("tcp.us_per_cycle."+kind, per(float64(runSum.Microseconds()), float64(cycles)))
	m.set("tcp.bytes_per_cycle."+kind, per(float64(wireB), float64(cycles)))
	m.set("tcp.writes_per_cycle."+kind, per(float64(wireW), float64(cycles)))
}

// timeScheduleBuild times schedule.ForTransform for all five Columnsort
// transformations at one shape, in a process whose schedule cache is cold.
func timeScheduleBuild(cols, colLen int) (*childResult, error) {
	if cols <= 0 || colLen <= 0 {
		return nil, fmt.Errorf("schedule shape %dx%d", cols, colLen)
	}
	sh := matrix.Shape{M: colLen, K: cols}
	start := time.Now()
	for kind := schedule.KindTranspose; kind <= schedule.KindUntranspose; kind++ {
		schedule.ForTransform(sh, kind)
	}
	res := &childResult{Metrics: metricSet{}}
	res.Metrics.set("schedule.build_s", time.Since(start).Seconds())
	return res, nil
}
