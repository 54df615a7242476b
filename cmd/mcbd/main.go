// Command mcbd is the long-lived MCB sort/select daemon: a warm pool of
// simulated MCB(p, k) networks serving sort, top-k, median, rank-d and
// multiselect over an HTTP JSON API, with request batching (small jobs
// arriving within a window coalesce into one shared engine run on disjoint
// subnets) and admission control (a bounded queue that answers 429/503 with
// Retry-After instead of queueing without bound).
//
// Usage:
//
//	mcbd [-addr :8326] [-instances 1] [-p 32] [-k 8] [-batch-window 2ms]
//	     [-max-batch 0] [-queue-depth 64] [-stall-timeout 0]
//
// Endpoints (all request/response bodies are JSON):
//
//	POST /v1/sort         {"values": [...], "order": "desc"|"asc"}
//	POST /v1/topk         {"values": [...], "k": 10}
//	POST /v1/median       {"values": [...]}
//	POST /v1/rank         {"values": [...], "d": 3}
//	POST /v1/multiselect  {"values": [...], "ds": [1, 5, 9]}
//	GET  /v1/healthz
//	GET  /v1/stats
//
// Every operation accepts optional "budget_cycles" (per-request cycle budget,
// exceeded -> 422), "no_batch" (dedicated engine run), and "fault_rate" /
// "fault_seed" / "retries" (deterministic fault injection served through the
// verify-and-retry recovery layer).
//
// On SIGTERM/SIGINT the daemon drains: admission stops (503), in-flight and
// queued requests complete, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcbnet/internal/service"
)

func main() {
	addr := flag.String("addr", ":8326", "listen address (host:port; :0 picks a free port)")
	instances := flag.Int("instances", 1, "pooled network instances (concurrent batches)")
	p := flag.Int("p", 32, "processors per pooled network")
	k := flag.Int("k", 8, "broadcast channels per pooled network")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "how long the first job of a batch waits for siblings")
	maxBatch := flag.Int("max-batch", 0, "max jobs per coalesced run (0 = k)")
	queueDepth := flag.Int("queue-depth", 64, "bounded admission queue depth")
	stallTimeout := flag.Duration("stall-timeout", 0, "engine stall watchdog (0 = engine default)")
	flag.Parse()

	srv, err := service.NewServer(service.Config{
		Instances:    *instances,
		P:            *p,
		K:            *k,
		BatchWindow:  *batchWindow,
		MaxBatch:     *maxBatch,
		QueueDepth:   *queueDepth,
		StallTimeout: *stallTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbd:", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbd:", err)
		os.Exit(2)
	}
	cfg := srv.Pool().Config()
	fmt.Printf("mcbd: listening on %s (instances=%d p=%d k=%d batch-window=%v max-batch=%d queue-depth=%d)\n",
		ln.Addr(), cfg.Instances, cfg.P, cfg.K, cfg.BatchWindow, cfg.MaxBatch, cfg.QueueDepth)

	httpSrv := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Printf("mcbd: %v, draining\n", sig)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "mcbd:", err)
		os.Exit(1)
	}

	// Graceful drain: stop admitting (the pool answers 503 while the HTTP
	// server finishes in-flight responses), then stop the listener.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mcbd: shutdown:", err)
		os.Exit(1)
	}
	st := srv.Pool().Stats()
	fmt.Printf("mcbd: drained (accepted=%d completed=%d failed=%d rejected=%d coalesced_runs=%d coalesced_jobs=%d)\n",
		st.Accepted, st.Completed, st.Failed, st.Rejected, st.CoalescedRuns, st.CoalescedJobs)
}
