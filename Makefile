# Standard gate for every change: `make check` must pass before a PR.
# Individual targets are available for quicker iteration.

GO ?= go

.PHONY: check vet build test race fmt bench bench-compare trace-demo chaos

check: fmt vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench regenerates the numbers recorded in BENCH_*.json.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkShuffle|BenchmarkLevenshtein$$|BenchmarkMatcherAbstracts|BenchmarkJaccardQ2|BenchmarkTokenCosine|BenchmarkJob2Map$$|BenchmarkJob2Reduce|BenchmarkSQKey|BenchmarkParseSQKey|BenchmarkDecodeBinary|BenchmarkEnginePipeline' -benchmem ./...

# bench-compare diffs the job graph's barrier edge policy against its
# pipelined edge policy on the skewed BenchmarkEnginePipeline workload,
# worker count by worker count. Host-parallelism caveat: on a
# single-CPU machine both policies do identical work and should tie;
# the pipelined overlap win needs real cores.
bench-compare:
	@tmp="$$(mktemp -d)"; \
	trap 'rm -rf "$$tmp"' EXIT; \
	echo "== barrier edge policy =="; \
	$(GO) test -run '^$$' -bench 'BenchmarkEnginePipeline/barrier' -benchmem ./internal/mapreduce \
		| grep '^Benchmark' | sed 's|/barrier/|/|' | tee "$$tmp/barrier.txt"; \
	echo "== pipelined edge policy =="; \
	$(GO) test -run '^$$' -bench 'BenchmarkEnginePipeline/pipelined' -benchmem ./internal/mapreduce \
		| grep '^Benchmark' | sed 's|/pipelined/|/|' | tee "$$tmp/pipelined.txt"; \
	echo "== barrier -> pipelined =="; \
	./scripts/benchdiff.sh "$$tmp/barrier.txt" "$$tmp/pipelined.txt"

# chaos runs the pipeline under deterministic fault injection and
# asserts the output is byte-identical to the fault-free baseline.
chaos:
	./scripts/chaos.sh

# trace-demo runs the quickstart example with tracing + metrics +
# quality telemetry enabled and sanity-checks the exported Chrome trace
# JSON and quality JSON with tracecheck.
trace-demo:
	@tmp="$$(mktemp -d)"; \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./examples/quickstart -trace "$$tmp/trace.json" -metrics-out "$$tmp/metrics.prom" -quality-out "$$tmp/quality.json" >/dev/null && \
	$(GO) run ./scripts/tracecheck -quality "$$tmp/quality.json" "$$tmp/trace.json" && \
	head -n 4 "$$tmp/metrics.prom"
