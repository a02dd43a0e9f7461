GO ?= go

.PHONY: all check build vet lint test race tier-race serve-race prof-race dist-race fuzz-smoke whatif-race analysis-race bench bench-serve bench-prof bench-dist bench-whatif bench-all bench-gate whatif-record whatif-record-dist_ring_1gbe whatif-record-dist_ring_10gbe whatif-record-dist_ring_nolimit whatif-record-dist_ps_1gbe whatif-record-dist_ps_10gbe whatif-record-dist_ring2_stream cover reproduce observations examples clean

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
# bit. Then ten seconds of arbitrary what-if scenario specs: an error, or
# a scenario whose every number is finite and positive. Then ten seconds
# of arbitrary /predict bodies into a one-replica fleet: 200, 400, 413,
# 429 or 503, never 500 and never a panic. Then ten seconds of arbitrary
# open-loop schedules: a named error, or phases the dispatcher can pace.
# Then ten seconds of arbitrary float32 bit patterns and shapes (channels,
# planes, images, start offset) through batch normalization's AVX2 channel
# sums, normalize and gradient bodies against their portable bodies, bit
# for bit (unminimized, like the ReLU line).
# `go test` alone replays the committed seeds; this mutates them.
fuzz-smoke:
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzPSFrame -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzGemmBlockedShapes -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzReLUKernels -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzRingRecv -fuzztime 10s
	$(GO) test ./internal/prof -run '^$$' -fuzz FuzzTraceRead -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzCtrlFrame -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzCheckpointLoad -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzConvShapes -fuzztime 10s
	$(GO) test ./internal/whatif -run '^$$' -fuzz FuzzParseScenario -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzPredictBody -fuzztime 10s
	$(GO) test ./cmd/tbdserve -run '^$$' -fuzz FuzzParsePhases -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzBatchNormKernels -fuzztime 10s -fuzzminimizetime 0

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

# Numeric-backend micro-benchmarks (blocked GEMM, conv, batch norm, twin step),
# machine-readable for regression tracking.
bench:
	$(GO) test -run '^$$' -bench 'GEMM|ConvFwdBwd|TwinStep|DenseFused|BatchNormFwdBwd|OptimStep' -benchtime 3s -benchmem -json . > BENCH_numeric.json
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

# What-if predictor benchmarks: replay engine cost and the twin step with
# recording enabled. The prediction cells live in the tier-1
# TestWhatifGroundTruth* tests.
bench-whatif:
	$(GO) test -run '^$$' -bench 'Whatif' -benchtime 1s -benchmem -json . > BENCH_whatif.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_whatif.json | sed 's/"Output":"//;s/\\t/\t/g' || true

bench-all:
	$(GO) test -bench=. -benchmem

# Re-record the committed what-if golden traces (testdata/whatif/): the
# twin traces per GEMM kernel tier via the env-gated recorder test, and
# each distributed cluster trace via a real `tbd dist` run under its own
# target (`make whatif-record-dist_ps_1gbe` re-records that trace alone).
# The recordings are timing ground truth, so they run one after another
# even under `make -j`. Only meaningful on the benchmark machine the
# EXPERIMENTS.md tables came from.
whatif-record:
	TBD_WHATIF_RECORD=1 $(GO) test -run TestRecordWhatifGoldenTraces -v .
	for t in ring_1gbe ring_10gbe ring_nolimit ps_1gbe ps_10gbe ring2_stream; do $(MAKE) whatif-record-dist_$$t || exit 1; done

whatif-record-dist_ring_1gbe:
	$(GO) run ./cmd/tbd dist -workers 4 -strategy ring -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 125 -trace-out testdata/whatif/dist_ring_1gbe.json

whatif-record-dist_ring_10gbe:
	$(GO) run ./cmd/tbd dist -workers 4 -strategy ring -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 1250 -trace-out testdata/whatif/dist_ring_10gbe.json

whatif-record-dist_ring_nolimit:
	$(GO) run ./cmd/tbd dist -workers 4 -strategy ring -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 0 -trace-out testdata/whatif/dist_ring_nolimit.json

whatif-record-dist_ps_1gbe:
	$(GO) run ./cmd/tbd dist -workers 4 -strategy ps-sync -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 125 -trace-out testdata/whatif/dist_ps_1gbe.json

whatif-record-dist_ps_10gbe:
	$(GO) run ./cmd/tbd dist -workers 4 -strategy ps-sync -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 1250 -trace-out testdata/whatif/dist_ps_10gbe.json

whatif-record-dist_ring2_stream:
	$(GO) run ./cmd/tbd dist -workers 2 -strategy ring -model mlp-wide -steps 50 -batch 32 -seed 1 -lr 0.05 -bw 1250 -trace-out testdata/whatif/dist_ring2_stream.json

# Noise-aware regression gate: each line builds the root test binary at
# HEAD (`git archive` into a temporary directory) and in the working
# tree, and runs each row BENCH_X.json names on both, one row at a time:
# base, change, base, ... five change runs, each set against the mean of
# the base runs either side. A line exits nonzero when the median of a
# row's five ns/op ratios is slower, or the median of a throughput ratio
# (GFLOP/s, samples/s, Melem/s, MB/s) lower, than the tolerance allows,
# or when a row of HEAD is gone. BENCH_X.json names what suite X runs; it is not
# a baseline. The what-if prediction cells are not here: each
# TestWhatifGroundTruth* test pins its error to the value committed
# beside it, so tier-1 gates them; the whatif suite keeps its timing rows.
# Beside each -tol is its floor: the largest |median delta| of any row
# over the A/A runs in EXPERIMENTS.md (an unchanged tree against its
# HEAD, sessions an hour apart, a 2-vCPU host). Load from elsewhere on
# the host raises the floors, and two sit above their tolerance: on a
# loaded host the numeric and dist lines fail an unchanged tree now and
# then (ROADMAP item 2(b) is the fix, not a wider -tol).
bench-gate:
	$(GO) run ./cmd/benchcompare -tol 0.20  # floor 24.7 %, OptimStep/momentum; failed 2 of 7 A/A runs
	$(GO) run ./cmd/benchcompare -suite serve -tol 0.40  # floor 17.8 %, Fleet/replicas4
	$(GO) run ./cmd/benchcompare -suite prof -tol 0.40  # floor 7.2 %, ProfSpan/disabled
	$(GO) run ./cmd/benchcompare -suite dist -benchtime 3x -tol 0.40  # floor 50.4 %, Dist/w1/ps-async/fp16/10gbe; failed 2 of 6 A/A runs
	$(GO) run ./cmd/benchcompare -suite whatif -tol 0.40  # floor 7.5 %, WhatifReplay

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
