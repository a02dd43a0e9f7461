GO ?= go

.PHONY: all check build vet lint test race tier-race serve-race prof-race dist-race fuzz-smoke whatif-race analysis-race bench bench-serve bench-prof bench-dist bench-whatif bench-all bench-compare bench-gate whatif-record cover reproduce observations examples clean

all: check

check: build vet lint test race tier-race serve-race prof-race dist-race fuzz-smoke whatif-race analysis-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# Repo-specific static analysis (see internal/analysis): pool lifetimes
# (interprocedural), profiler span balance, kernel determinism, lock
# annotations verified across call boundaries, discarded errors,
# atomic/plain mixed access, goroutine shutdown edges, and wire-kind
# coverage. The tree must stay at zero findings; -stats keeps the lint
# cost observable as the analyzer count grows.
lint:
	$(GO) run ./cmd/tbdvet -stats ./...

test:
	$(GO) test ./...

# Race detector over the packages the worker pool and buffer arena touch.
race:
	$(GO) test -race ./internal/tensor/... ./internal/layers/... ./internal/graph/...

# Race detector over the tensor package with the GEMM kernel tier pinned
# to each extreme: the AVX2+FMA asm micro-kernels (widest path, fp16
# packing) and the pure-Go reference tier. Catches races in the tier
# dispatch itself and in the per-tier pack-buffer pooling. The layers and
# the training step ride along, so the gradient-write and backward tests
# see both tiers' GEMMs.
tier-race:
	TBD_GEMM_KERNEL=avx2 $(GO) test -race ./internal/tensor/ ./internal/layers/ ./internal/graph/
	TBD_GEMM_KERNEL=ref $(GO) test -race ./internal/tensor/ ./internal/layers/ ./internal/graph/

# Race detector over the serving path (router, replica batcher, admission
# control, hot-swap, drain), the daemon's handler and load generators
# driven in-process, and the data pipeline's prefetch/shutdown machinery.
serve-race:
	$(GO) test -race ./internal/serve/... ./cmd/tbdserve/ ./internal/data/...

# Race detector over the live profiler (atomic gate, collector, pool
# counter source), the trace writer it feeds, and the histogram
# shard-merge pattern the serving stats rely on.
prof-race:
	$(GO) test -race ./internal/prof/... ./internal/trace/... ./internal/memprof/... ./internal/metrics/...

# Race detector over the distributed runtime (ring all-reduce, parameter
# server, throttled transport, coordinator) and the CLI package, whose
# dist tests spawn real worker OS processes over localhost TCP; then the
# example that trains on that runtime in-process, run rather than only
# compiled.
dist-race:
	$(GO) test -race ./internal/dist/... ./cmd/tbd/
	$(GO) run ./examples/distributed

# Ten seconds of coverage-guided garbage against a live parameter-server
# connection handler: no panic, no hang, no allocation sized from the wire.
# Then ten seconds of shapes, layouts and write modes through the k-blocked
# wide GEMM driver against its single-pass reference, bit for bit. Then ten
# seconds of arbitrary float32 bit patterns (every NaN payload) through the
# vector ReLU kernels against the scalar loops they replaced (without
# minimizing each input that reaches new coverage: shrinking a byte string
# one byte at a time would use up the ten seconds).
# `go test` alone replays the committed seeds; this mutates them.
fuzz-smoke:
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzPSFrame -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzGemmBlockedShapes -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzReLUKernels -fuzztime 10s -fuzzminimizetime 0

# Race detector over the what-if predictor: trace capture off the live
# profiler (concurrent span emission), merge, replay, and the root-package
# golden-trace ground-truth tests.
whatif-race:
	$(GO) test -race ./internal/whatif/...
	$(GO) test -race -run 'Whatif' .

# Race detector over the analysis engine itself: the parallel driver
# typechecks and checks packages concurrently, so its own worker pool and
# the locked importer must be race-clean.
analysis-race:
	$(GO) test -race ./internal/analysis/...

# Numeric-backend micro-benchmarks (blocked GEMM, conv, twin step),
# machine-readable for regression tracking.
bench:
	$(GO) test -run '^$$' -bench 'GEMM|ConvFwdBwd|TwinStep|DenseFused|OptimStep' -benchtime 3s -benchmem -json . > BENCH_numeric.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_numeric.json | sed 's/"Output":"//;s/\\t/\t/g' || true

# Serving benchmarks, all through serve.Fleet: one replica batched vs
# unbatched across batch caps (Serve*), then the replica sweep (Fleet/*);
# closed-loop throughput, machine-readable for regression tracking.
bench-serve:
	$(GO) test -run '^$$' -bench 'Serve|Fleet' -benchtime 2s -benchmem -json . > BENCH_serve.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_serve.json | sed 's/"Output":"//;s/\\t/\t/g' || true

# Profiler overhead benchmarks: span fast path (disabled must be 0
# allocs/op) and full twin step with the profiler off vs on.
bench-prof:
	$(GO) test -run '^$$' -bench 'Prof' -benchtime 2s -benchmem -json . > BENCH_prof.json

# Distributed-training scaling matrix: workers x strategy x compression
# x throttled bandwidth, each cell a full coordinated run over real TCP.
# One iteration per cell — the throttled links make timings repeatable.
bench-dist:
	$(GO) test -run '^$$' -bench 'Dist' -benchtime 1x -benchmem -json . > BENCH_dist.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_dist.json | sed 's/"Output":"//;s/\\t/\t/g' || true

# What-if predictor benchmarks: ground-truth prediction error per cell
# (pred-err-pct, deterministic replay of the committed golden traces),
# replay engine cost, and the twin step with recording enabled.
bench-whatif:
	$(GO) test -run '^$$' -bench 'Whatif' -benchtime 1s -benchmem -json . > BENCH_whatif.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_whatif.json | sed 's/"Output":"//;s/\\t/\t/g' || true

bench-all:
	$(GO) test -bench=. -benchmem

# Re-record the committed what-if golden traces (testdata/whatif/): the
# twin traces per GEMM kernel tier via the env-gated recorder test, and
# the distributed cluster traces via real `tbd dist` runs. Only
# meaningful on the benchmark machine the BENCH_*.json baselines and
# EXPERIMENTS.md tables came from.
whatif-record:
	TBD_WHATIF_RECORD=1 $(GO) test -run TestRecordWhatifGoldenTraces -v .
	$(GO) build -o /tmp/tbd-whatif-record ./cmd/tbd
	/tmp/tbd-whatif-record dist -workers 4 -strategy ring -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 125 -trace-out testdata/whatif/dist_ring_1gbe.json
	/tmp/tbd-whatif-record dist -workers 4 -strategy ring -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 1250 -trace-out testdata/whatif/dist_ring_10gbe.json
	/tmp/tbd-whatif-record dist -workers 4 -strategy ring -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 0 -trace-out testdata/whatif/dist_ring_nolimit.json
	/tmp/tbd-whatif-record dist -workers 4 -strategy ps-sync -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 125 -trace-out testdata/whatif/dist_ps_1gbe.json
	/tmp/tbd-whatif-record dist -workers 4 -strategy ps-sync -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 1250 -trace-out testdata/whatif/dist_ps_10gbe.json
	rm -f /tmp/tbd-whatif-record

# Re-run the tracked micro-benchmarks and print old-vs-new deltas against
# the committed baselines (-suite numeric is the default; -suite serve
# diffs BENCH_serve.json, -suite prof diffs BENCH_prof.json).
bench-compare:
	$(GO) run ./cmd/benchcompare
	$(GO) run ./cmd/benchcompare -suite serve
	$(GO) run ./cmd/benchcompare -suite prof
	$(GO) run ./cmd/benchcompare -suite dist -benchtime 1x
	$(GO) run ./cmd/benchcompare -suite whatif -benchtime 1x

# Noise-aware regression gate: re-run the tracked suites and exit nonzero
# when any benchmark slows down (ns/op) or loses throughput by more than
# the tolerance. The numeric kernels are stable enough for a tight gate;
# the serving and profiler suites schedule goroutines and get more slack.
# The whatif suite is gated on prediction error (deterministic replay of
# committed traces, so zero noise), not on wall time.
bench-gate:
	$(GO) run ./cmd/benchcompare -tol 0.20
	$(GO) run ./cmd/benchcompare -suite serve -tol 0.40
	$(GO) run ./cmd/benchcompare -suite prof -tol 0.40
	$(GO) run ./cmd/benchcompare -suite dist -benchtime 1x -tol 0.40
	$(GO) run ./cmd/benchcompare -suite whatif -benchtime 1x -errbound 20

cover:
	$(GO) test -cover ./...

# Regenerate every table and figure of the paper (quick fig2 pass).
reproduce:
	$(GO) run ./cmd/tbd run -quick all

observations:
	$(GO) run ./cmd/tbd observations

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/translation
	$(GO) run ./examples/memprofile
	$(GO) run ./examples/distributed
	$(GO) run ./examples/toolchain
	$(GO) run ./examples/pong_a3c
	$(GO) run ./examples/serving

clean:
	$(GO) clean ./...
