# Development targets. `make verify` is the gate CI and pre-commit use;
# `make lint` mirrors the CI lint job: vet, a gofmt check over the whole
# tree (the nested benchmark module included), staticcheck and govulncheck
# (the last two are skipped with a note when not installed — CI always runs
# them).

GO ?= go

.PHONY: build test vet race verify bench-module bench lint bench-gate bench-baseline profile-engine trace-sample fuzz transport-chaos service-smoke load-bench service-baseline

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

verify: build vet race bench-module

# The benchmark (benchmark/) is a nested module, so the root's ./... never
# builds it: vet it and race-test it (its tests include an in-process smoke
# of every workload) so a library change cannot silently break it.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "lint: gofmt would reformat:"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (CI runs it)"; \
	fi

# The CI benchmark regression gate, runnable locally: fresh engine sweep vs
# the committed artifact, each (workload, p, k) against its baseline entry,
# ±20%. Refuses a baseline recorded on a
# different machine (go version / GOMAXPROCS / CPU count are part of the
# artifact); regenerate with `make bench-baseline` or, to merely smoke the
# sweep, add -allow-env-mismatch as CI's hosted runners do.
bench-gate:
	$(GO) run ./cmd/mcbbench -engine -compare BENCH_engine.json -threshold 0.20 \
		-out BENCH_engine.fresh.json

# Regenerate the committed benchmark artifact on this machine, carrying the
# previous entries over as the embedded before/after baseline.
bench-baseline:
	$(GO) run ./cmd/mcbbench -engine -baseline BENCH_engine.json -out BENCH_engine.json

# CPU-profile the engine's hot loops: the barrier, dense and sparse workloads
# at p=16384 under pprof, then the top of the profile. CI archives the .pprof
# so a regression's flame graph is one `go tool pprof` away.
profile-engine:
	$(GO) run ./cmd/mcbbench -engine -engine-sizes 16384 \
		-cpuprofile engine_cpu.pprof -out /dev/null
	$(GO) tool pprof -top -nodecount 15 engine_cpu.pprof

# Checkpoint-codec fuzz smoke (CI runs the same, shorter): coverage-guided
# decoding of mutated snapshots — anything malformed must surface as a typed
# ErrInvalid, never a panic or a silently accepted wrong state.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)

# Transport robustness gate, mirroring the CI transport-chaos job: the
# conformance suite over the in-process and TCP transports (plain and under
# flaky links), the socket chaos tests (kill-and-resume, permanent link
# loss with channel degradation, partition/reconnect, corruption recovery,
# sequencer failover to a standby candidate), all race-enabled, plus the
# OS-process mcbpeer smoke (clean-run report parity, SIGKILL + -resume
# rejoin, and SIGKILL-the-active-sequencer failover to a standby).
transport-chaos:
	$(GO) test -race -count=1 ./internal/transport/...
	MCBNET_MULTIPROC=1 $(GO) test -race -count=1 -run TestMultiProcSmoke ./internal/transport/tcp

# Service smoke, mirroring the CI service-smoke job: build mcbd + mcbload,
# start the daemon with a modest queue depth (so the overload phase's
# admission rejections are deterministic), run the smoke-mixed profile (all
# five ops, a fault-injected segment, an over-rate segment — every response
# oracle-verified), then SIGTERM and require a clean drain.
service-smoke:
	$(GO) build -o mcbd.bin ./cmd/mcbd
	$(GO) build -o mcbload.bin ./cmd/mcbload
	./mcbd.bin -addr 127.0.0.1:8326 -queue-depth 8 > mcbd.log 2>&1 & \
	MCBD_PID=$$!; \
	./mcbload.bin -addr http://127.0.0.1:8326 -profile smoke-mixed -v; RC=$$?; \
	kill -TERM $$MCBD_PID; wait $$MCBD_PID; DRAIN=$$?; \
	cat mcbd.log; rm -f mcbd.bin mcbload.bin; \
	[ $$RC -eq 0 ] && [ $$DRAIN -eq 0 ]

# The CI service benchmark gate, runnable locally: the service-bench profile
# (batch-win pair + sustained mixed load) against a fresh daemon, gated on
# the committed BENCH_service.json baseline and the >= 2x batching win.
# Like bench-gate, a baseline recorded on a different machine is refused —
# regenerate with `make service-baseline`.
load-bench:
	$(GO) build -o mcbd.bin ./cmd/mcbd
	$(GO) build -o mcbload.bin ./cmd/mcbload
	./mcbd.bin -addr 127.0.0.1:8326 > mcbd.log 2>&1 & \
	MCBD_PID=$$!; \
	./mcbload.bin -addr http://127.0.0.1:8326 -profile service-bench \
		-out BENCH_service.fresh.json -compare BENCH_service.json \
		-threshold 0.35 -min-batch-win 2.0 -v; RC=$$?; \
	kill -TERM $$MCBD_PID; wait $$MCBD_PID; \
	rm -f mcbd.bin mcbload.bin; exit $$RC

# Regenerate the committed service benchmark baseline on this machine.
service-baseline:
	$(GO) build -o mcbd.bin ./cmd/mcbd
	$(GO) build -o mcbload.bin ./cmd/mcbload
	./mcbd.bin -addr 127.0.0.1:8326 > mcbd.log 2>&1 & \
	MCBD_PID=$$!; \
	./mcbload.bin -addr http://127.0.0.1:8326 -profile service-bench \
		-out BENCH_service.json -min-batch-win 2.0; RC=$$?; \
	kill -TERM $$MCBD_PID; wait $$MCBD_PID; \
	rm -f mcbd.bin mcbload.bin; exit $$RC

# The acceptance-shape cycle trace (p=16, k=4 sort), Perfetto-loadable.
trace-sample:
	$(GO) run ./cmd/mcbtrace -n 64 -p 16 -k 4 -format perfetto -o trace_sample.perfetto.json
	@echo "wrote trace_sample.perfetto.json — open it in https://ui.perfetto.dev"
