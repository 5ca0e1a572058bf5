GO ?= go

.PHONY: build test check bench bench-all fuzz conformance chaos soak tcp-smoke scaling

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check runs the hygiene gate: gofmt, go vet, and a race-detector pass
# over the packages with concurrent hot paths (telemetry counters, the
# cluster runtime, the chunk-concurrent codec and reducer).
check:
	sh scripts/check.sh

# bench runs the hot-path gate (Fig. 6, Table V, Fig. 8 and the
# steady-state zero-allocation benches) and writes BENCH_hotpaths.json;
# it fails if the steady-state homomorphic add allocates. bench-all is
# the old full sweep: every benchmark once, no JSON.
bench:
	sh scripts/bench.sh

bench-all:
	$(GO) test -bench . -benchtime 1x ./...

# fuzz runs every native fuzz target for FUZZTIME each (default 10s, a
# CI smoke; FUZZTIME=5m makes it a real session). Committed seed corpora
# under */testdata/fuzz/ always replay as part of `make test`.
fuzz:
	sh scripts/fuzz.sh

# conformance runs the differential oracles: in-repo unit/edge-shape
# suites, the golden schedule table (every backend x algorithm x op
# pinned by output digests and virtual time), plus the CLI gate over the
# synthetic dataset catalog.
conformance:
	$(GO) test ./internal/conformance ./internal/core -run 'Oracle|Conformance|EdgeShapes' -count=1
	$(GO) test . -run 'TestGoldenSchedules' -count=1
	$(GO) run ./cmd/hzccl-conformance

# chaos exercises the self-healing transport: race-enabled robustness
# suites (reliable delivery, degradation, chaos schedules), then the
# conformance oracle and a demo Allreduce on a seeded faulty fabric.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Reliable|Degrad|Barrier|Agree|Corrupt|Fault' . ./internal/cluster ./internal/conformance
	$(GO) run ./cmd/hzccl-conformance -oracles collective -ranks 4 -n 32768 -chaos 1 -chaos-rate 0.05
	$(GO) run ./cmd/hzccl-collective -chaos 5 -nodes 6 -message 262144

# soak runs the elastic-membership chaos soak race-enabled: SOAK_ITERS
# iterations (default 25 here, 3 under plain `make test`), each killing a
# seeded random rank mid-Allreduce and checking the survivors shrink,
# finish under the cooperative-abort deadline, and match a fresh
# shrunken-world run bitwise. SOAK_SEED overrides the seed; a failure
# message includes it for replay. The membership/shrink unit suites run
# first under the race detector.
soak:
	$(GO) test -race -count=1 -run 'Agree|Shrink|Membership|ConnReset' ./internal/cluster ./internal/conformance
	SOAK_ITERS=$${SOAK_ITERS:-25} $(GO) test -race -count=1 -run 'TestShrinkSoak' -v .

# tcp-smoke runs a 4-rank hZCCL Allreduce as 4 real OS processes over
# loopback TCP and verifies the result digest is bitwise identical to the
# in-process fabric, plus the transport and daemon unit tests under the
# race detector. Each script run also boots the hzccl-serve daemon and
# submits concurrent jobs over one mesh handshake.
tcp-smoke:
	$(GO) test -race -count=1 -run 'TestTCP' ./internal/cluster
	$(GO) test -race -count=1 ./serve
	sh scripts/tcp_smoke.sh
	sh scripts/tcp_smoke.sh 65536 mpi
	sh scripts/tcp_smoke.sh 65536 hzccl hierarchical 2x2

# scaling runs the paper-scale virtual-time sweep: every algorithm
# (ring, rd, rabenseifner, hierarchical, auto) x flavor at the worlds in
# SCALING_WORLDS (default here 8,64,128,512, the paper scale), checked
# bit-identically against a float64 oracle, plus the cost-model unit
# suite that pins the auto-selector's crossover points. The curve goes to
# SCALING_OUT (default: a temp file, removed afterwards) and every
# point's virtual seconds must equal the committed BENCH_scaling.json, so
# the modeled cost of each schedule is pinned.
scaling:
	out=$${SCALING_OUT:-$$(mktemp)}; \
	SCALING_WORLDS=$${SCALING_WORLDS:-8,64,128,512} SCALING_OUT=$$out $(GO) test -count=1 -run 'TestScalingSweep' -v . && \
	$(GO) run ./scripts/scalingdiff BENCH_scaling.json $$out; \
	status=$$?; [ -n "$$SCALING_OUT" ] || rm -f $$out; exit $$status
	$(GO) test -count=1 ./internal/costmodel
