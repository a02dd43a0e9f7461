GO ?= go

.PHONY: all check build vet lint test race tier-race serve-race prof-race dist-race fuzz-smoke whatif-race analysis-race bench bench-serve bench-prof bench-dist bench-whatif bench-all bench-compare bench-gate whatif-record cover reproduce observations examples clean

all: check

check: build vet lint test race tier-race serve-race prof-race dist-race fuzz-smoke whatif-race analysis-race

build:
	$(GO) build ./...

# The cross vets keep the portable bodies and the tests compiling beside
# the amd64 asm, and keep internal/dist's little-endian fp32 codec building
# on a 64-bit and a 32-bit GOARCH other than the host's.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...

# Repo-specific static analysis (see internal/analysis): pool lifetimes
# (interprocedural), profiler span balance, kernel determinism, lock
# annotations verified across call boundaries, discarded errors,
# atomic/plain mixed access, goroutine shutdown edges, wire-kind
# coverage, and code nothing but tests reaches (unused). The tree must stay at zero findings; -stats keeps the lint
# cost observable as the analyzer count grows.
lint:
	$(GO) run ./cmd/tbdvet -stats ./...

test:
	$(GO) test ./...

# Race detector over the packages the worker pool and buffer arena touch.
race:
	$(GO) test -race ./internal/tensor/... ./internal/layers/... ./internal/graph/...

# Race detector over the tensor package with the GEMM kernel tier pinned
# to each extreme: the AVX2+FMA asm micro-kernels (widest path, frozen
# fp32 and fp16 panels) and the pure-Go reference tier (the frozen
# matrices' unpack fallback). Catches races in the tier dispatch itself
# and in the per-tier pack-buffer pooling. The layers and the training
# step ride along, so the gradient-write and backward tests see both
# tiers' GEMMs, and so does serving: concurrent replicas read one shared
# frozen panel on both paths.
tier-race:
	TBD_GEMM_KERNEL=avx2 $(GO) test -race ./internal/tensor/ ./internal/layers/ ./internal/graph/ ./internal/serve/
	TBD_GEMM_KERNEL=ref $(GO) test -race ./internal/tensor/ ./internal/layers/ ./internal/graph/ ./internal/serve/

# Race detector over the serving path (router, replica batcher, admission
# control, hot-swap, drain), the daemon's handler and load generators
# driven in-process, and the data pipeline's prefetch/shutdown machinery.
serve-race:
	$(GO) test -race ./internal/serve/... ./cmd/tbdserve/ ./internal/data/...

# Race detector over the live profiler (atomic gate, collector, pool
# counter source, span tree, trace file), the simulator that records into
# that trace file, and the histogram shard-merge pattern the serving
# stats rely on.
prof-race:
	$(GO) test -race ./internal/prof/... ./internal/sim/... ./internal/memprof/... ./internal/metrics/...

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
# one byte at a time would use up the ten seconds). Then ten seconds of
# arbitrary fp32, fp16 and int8 bytes into a ring rank's receive loop from
# a peer that hangs up anywhere: a named error, one piece of scratch, no
# hang. Then ten seconds of arbitrary bytes into the span-trace reader
# (unminimized, like the ReLU line): a trace or a named error, no panic,
# allocation bounded by a constant times the input. Then ten seconds of
# arbitrary control frames from a rank into the coordinator over a pipe: a
# run or a named error, no hang, allocation bounded by a constant times
# the input. Then ten seconds of arbitrary checkpoint bytes into an
# mlp-wide network: loaded whole or left unchanged, allocation bounded by
# the model plus a constant (the layout-table reader it fuzzes is the
# parameter-server client's). Both unminimized: a multi-frame input, or a
# seed the size of the model, takes longer than ten seconds to shrink.
# Then ten seconds of convolution shapes (batch, channels, image, filters,
# kernel, stride, padding, fused epilogue) through the forward and both
# gradients on every GEMM tier, against the batch-wide lowering, bit for
# bit. `go test` alone replays the committed seeds; this mutates them.
fuzz-smoke:
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzPSFrame -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzGemmBlockedShapes -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzReLUKernels -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzRingRecv -fuzztime 10s
	$(GO) test ./internal/prof -run '^$$' -fuzz FuzzTraceRead -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzCtrlFrame -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzCheckpointLoad -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzConvShapes -fuzztime 10s

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

# Serving benchmarks, all through serve.Fleet: one replica across batch
# caps (ServeBatched/cap1 is unbatched), then the replica sweep (Fleet/*);
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
# Three runs per cell: two one-run A/A passes differed by up to 140% on
# ns/op (a 3-step cell is mostly connection set-up), two three-run passes
# by up to 35%.
bench-dist:
	$(GO) test -run '^$$' -bench 'Dist' -benchtime 3x -benchmem -json . > BENCH_dist.json
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
	/tmp/tbd-whatif-record dist -workers 2 -strategy ring -model mlp-wide -steps 50 -batch 32 -seed 1 -lr 0.05 -bw 1250 -trace-out testdata/whatif/dist_ring2_stream.json
	rm -f /tmp/tbd-whatif-record

# Re-run the tracked benchmarks and print old-vs-new deltas against the
# committed baselines: -suite X runs exactly what BENCH_X.json names.
bench-compare:
	$(GO) run ./cmd/benchcompare
	$(GO) run ./cmd/benchcompare -suite serve
	$(GO) run ./cmd/benchcompare -suite prof
	$(GO) run ./cmd/benchcompare -suite dist -benchtime 3x
	$(GO) run ./cmd/benchcompare -suite whatif -benchtime 1x

# Noise-aware regression gate: re-run the tracked suites and exit nonzero
# when any benchmark slows down (ns/op) or loses throughput by more than
# the tolerance. The whatif suite is gated on prediction error
# (deterministic replay of committed traces, so zero noise), not on wall
# time. Beside each -tol is its floor: the largest |delta| of any metric
# between the committed baselines and reruns of the same code within the
# hour after recording, on the 2-vCPU host that recorded them. A floor
# above the -tol means that host fails the gate with no code change: the
# numeric suite failed 4 of 4 such reruns, every one slower than the
# baseline (ROADMAP item 2 is the fix).
bench-gate:
	$(GO) run ./cmd/benchcompare -tol 0.20  # floor 68 %, GEMMTier/ref/1024, 4 reruns
	$(GO) run ./cmd/benchcompare -suite serve -tol 0.40  # floor 26 %, ServeBatched/cap4, 2 reruns
	$(GO) run ./cmd/benchcompare -suite prof -tol 0.40  # floor 23 %, ProfStep/on, 2 reruns
	$(GO) run ./cmd/benchcompare -suite dist -benchtime 3x -tol 0.40  # floor 65 % faster, 29 % slower, 2 reruns
	$(GO) run ./cmd/benchcompare -suite whatif -benchtime 1x -errbound 20  # pred-err-pct is deterministic

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
