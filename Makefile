GO ?= go

# Where the bench/load smoke runs land their machine-readable results.
BENCH_OUT ?= BENCH_PR10.json
LOAD_OUT ?= BENCH_LOAD.json

.PHONY: all build vet test race check equiv32 fuzz-smoke bench bench-smoke load-smoke serve-bench clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# -short skips the slow experiment-reproduction sweeps (serial model
# training, no concurrency to check) which exceed the go test timeout
# under the race detector's slowdown; every concurrent package (obs,
# serve, detect, transdas) runs in full.
race:
	$(GO) test -race -short ./...

# A short coverage-guided pass over the WAL record decoder — the one
# parser that must never panic on arbitrary bytes (it reads crash
# debris on every recovery).
fuzz-smoke:
	$(GO) test -fuzz=FuzzRecordDecode -fuzztime=10s -run='^$$' ./internal/wal/

# The float32 scoring kernel's contract: similarity scores within 1e-4
# of the float64 reference with stable ranks/verdicts, on every mask
# kind and the positional variant, and both precisions' weight
# snapshots tracking a fine-tune (float64 to 1e-9), plus the kernel
# tests: bitwise parity of the AVX matmul (dispatch forced each way)
# and the SSE softmax against their portable twins, the softmax
# exponential's error bound against math.Exp, and the float64
# softmax's bit-identical masked skip. Run without -short so the
# Scenario-II shape (the paper model's h=64 m=8 head width, which
# exercises the packed attention kernels) is covered.
equiv32:
	$(GO) test -count=1 -run 'TestFloat32' ./internal/transdas/
	$(GO) test -count=1 -run 'TestMatMul32AsmMatchesGeneric|TestAttnKernels8|TestSoftmax32MatchesGeneric|TestExp32Accuracy|TestSoftmaxMaskedSkipBitIdentical' ./internal/tensor/

# The CI gate: static checks plus the suite under the race detector
# (the serving layer is heavily concurrent), the float32 equivalence
# contract, and the WAL decoder fuzz smoke.
check: vet build race equiv32 fuzz-smoke

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# A fast scoring/training-benchmark pass (sub-minute) that CI runs on
# every build: it does not gate on throughput numbers, but catches hot
# paths that break outright or regress catastrophically. The combined
# text output is converted to $(BENCH_OUT) (serve throughput across
# the ingest-shard matrix shards={1,4,8} at workers=8, 4-tenant routed
# ingest, feed front-door lines/sec, batch scoring in both precisions,
# the memoized scoring sweep across hit rates — each sub-run reports
# its measured hit% — and training windows/sec) for the CI artifact.
# The scoring benches cost milliseconds per iteration, so they run a
# fixed 100 iterations (100ms would give them 1-3): one full period of
# BenchmarkScoreCached's hit schedule (i%100 < hit%), so each hit-rate
# sub-run measures the rate it is named for. The ingest-plane benches
# keep a 100ms benchtime.
bench-smoke:
	{ \
	  $(GO) test -bench='BenchmarkScoreBatch|BenchmarkScoreBatch32|BenchmarkScoreCached|BenchmarkDetectionScore' -benchtime=100x -run='^$$' . && \
	  $(GO) test -bench='BenchmarkServeThroughput|BenchmarkFeedThroughput' -benchtime=100ms -run='^$$' . && \
	  $(GO) test -bench=BenchmarkTrainEpoch -benchtime=1x -benchmem -run='^$$' . && \
	  $(GO) test -bench=BenchmarkScoreSequentialTape -benchtime=100ms -run='^$$' ./internal/transdas/ ; \
	} | tee bench-smoke.out
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < bench-smoke.out
	@rm -f bench-smoke.out

# A ~20s sustained-load smoke on the closed-loop harness: ucad-loadgen
# drives the in-process serving plane at a fixed rate (token-bucket
# paced, MultiGen traffic over 2 tenants) and reports throughput,
# p50/p99 ingest latency and allocation rates as one go-bench-shaped
# line, converted to $(LOAD_OUT). Like bench-smoke it does not gate on
# numbers — it catches the load path breaking outright.
load-smoke:
	$(GO) run ./cmd/ucad-loadgen -rate 1500 -duration 15s | tee load-smoke.out
	$(GO) run ./cmd/benchjson -o $(LOAD_OUT) < load-smoke.out
	@rm -f load-smoke.out

serve-bench:
	$(GO) test -bench=BenchmarkServeThroughput -benchmem -run='^$$' .

clean:
	$(GO) clean ./...
