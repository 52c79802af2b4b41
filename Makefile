# Standard gate for every change: `make check` must pass before a PR.
# It runs scripts/check.sh: gofmt, vet, the telemetry-key lint, build,
# the bench module, the race suite, every fuzz target and the smoke
# runs. Individual targets are available for quicker iteration.

GO ?= go

.PHONY: check vet build test race fmt bench profile trace-demo

check:
	sh scripts/check.sh

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
	$(GO) test -run '^$$' -bench 'BenchmarkShuffle|BenchmarkLevenshtein$$|BenchmarkMatcherAbstracts|BenchmarkMatcherBooks|BenchmarkMatcherPersons|BenchmarkJaccardQ2|BenchmarkTokenCosine|BenchmarkJob1Map|BenchmarkJob1Reduce|BenchmarkJob2Map$$|BenchmarkJob2Reduce|BenchmarkSQKey|BenchmarkParseSQKey|BenchmarkDecodeBinary|BenchmarkDecoder' -benchmem ./...

# profile runs N Resolve operations on the inputs of a benchmark driver
# workload (WORKLOAD=persons|books|pubs, i.e. persons-exact, books-local,
# pubs-local), leaves cpu.pprof and allocs.pprof in a temp dir and prints,
# per operation, wall and CPU milliseconds and the collector's share of
# that CPU (runtime/metrics), MiB allocated, mallocs and collector
# cycles, plus GCCPUFraction and VmHWM.
WORKLOAD ?= persons
N ?= 15
profile:
	$(GO) run ./scripts/profile -workload $(WORKLOAD) -n $(N)

# trace-demo resolves the Table-I toy workload with tracing + metrics +
# quality telemetry enabled and sanity-checks the exported Chrome trace
# JSON and quality JSON with tracecheck.
trace-demo:
	@tmp="$$(mktemp -d)"; \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/proger -generate people -machines 2 -out /dev/null -trace "$$tmp/trace.json" -metrics-out "$$tmp/metrics.prom" -quality-out "$$tmp/quality.json" 2>/dev/null && \
	$(GO) run ./scripts/tracecheck -quality "$$tmp/quality.json" "$$tmp/trace.json" && \
	head -n 4 "$$tmp/metrics.prom"
