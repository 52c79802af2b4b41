#!/bin/sh
# The repo's standard verification gate, which `make check` runs:
# gofmt cleanliness, go vet (plus staticcheck when installed), a
# telemetry-key lint, a docs lint, full build, a JSON decode of every
# figure and table cmd/experiments prints, the bench module's vet and quick
# suite, the race-enabled test suite with the whole-pipeline oracle, a
# short run of every fuzz target, and the bounded-memory (publications
# and persons-exact), live, fleet and Basic-baseline smokes. Run from
# the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
out="$(gofmt -l .)"
if [ -n "$out" ]; then
    echo "gofmt needed on:"
    echo "$out"
    exit 1
fi

echo "== go vet =="
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck =="
    staticcheck ./...
else
    echo "== staticcheck == (skipped: not installed)"
fi

# Telemetry keys — counters, gauges, histograms, and structured event
# names alike — must be the exported constants (mapreduce.Counter*/
# Hist*, blocking.CounterJob1*, core.CounterJob2*/CounterBasic*/Gauge*,
# live.Event* / proger.Event*), never inline string literals — tests
# excepted, since they exercise arbitrary keys.
echo "== telemetry-key lint =="
# (log.Emit catches EventLog emissions — elog.Emit / r.log.Emit —
# without tripping on MapReduce Emitter.Emit KV calls.)
offenders="$(grep -rn --include='*.go' -E '\.Inc\("|Counters\.Get\("|\.Counter\("|\.Gauge\("|\.Histogram\("|log\.Emit\("' \
    internal cmd | grep -v '_test\.go:' || true)"
if [ -n "$offenders" ]; then
    echo "string-literal telemetry keys (use the exported constants):"
    echo "$offenders"
    exit 1
fi
# The distributed-transport instrument keys (mr.dist.* counters,
# mr_dist_* histograms) are declared once in counters.go; any other
# literal occurrence is a key that will silently drift from the
# constant.
dist_offenders="$(grep -rn --include='*.go' -E '"mr\.dist\.|"mr_dist_' \
    internal cmd | grep -v '_test\.go:' \
    | grep -v 'internal/mapreduce/counters\.go:' || true)"
if [ -n "$dist_offenders" ]; then
    echo "literal mr.dist telemetry keys (use the mapreduce.CounterDist*/HistDist* constants):"
    echo "$dist_offenders"
    exit 1
fi

# The docs name tests and files as the way to check a claim: every
# Test…/Fuzz…/Benchmark… name DESIGN.md or README.md mentions must be
# defined somewhere in the repo (a trailing * makes it a prefix), every
# *.go path they mention must exist (a bare file name, or a path that
# starts inside a package, matches by its tail), and so must every path
# under internal/, cmd/, scripts/ or examples/ they name (a package
# path followed by .Identifier names the package).
echo "== docs lint =="
gofiles="$(find . -name '*.go' -not -path './.bench_build/*' | sed 's|^\.||')"
defined="$(find . -name '*_test.go' -not -path './.bench_build/*' \
    -exec grep -hoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' {} + | sed 's/^func //')"
stale="$(
    grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*\*?' DESIGN.md README.md | sort -u |
        while read -r name; do
            case "$name" in
            *\*) printf '%s\n' "$defined" | grep -q "^${name%\*}" || echo "$name" ;;
            *) printf '%s\n' "$defined" | grep -qx "$name" || echo "$name" ;;
            esac
        done
    grep -ohE '[A-Za-z0-9_./-]+\.go\b' DESIGN.md README.md | sort -u |
        while read -r path; do
            printf '%s\n' "$gofiles" | grep -qE "/$(printf '%s' "$path" | sed 's/\./\\./g')\$" || echo "$path"
        done
    grep -ohE '\b(internal|cmd|scripts|examples)/[A-Za-z0-9_/-]*(\.[a-z]+\b)?' DESIGN.md README.md |
        sed 's|/*$||' | sort -u |
        while read -r path; do
            [ -e "$path" ] || echo "$path"
        done
)"
if [ -n "$stale" ]; then
    echo "DESIGN.md / README.md name tests, files or directories that do not exist:"
    echo "$stale"
    exit 1
fi

echo "== go build =="
go build ./...

# Scratch space for the smoke runs below.
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT

# Every figure and table of cmd/experiments, as JSON: each document
# must decode, a figure with one recall per grid time in every series, a
# table with one cell per header column in every row.
echo "== experiments JSON =="
if command -v jq >/dev/null 2>&1; then
    go run ./cmd/experiments all -entities 600 -json >"$smoke/experiments.json"
    jq -e -s 'length > 0 and all(.[]; (.id | type) == "string" and
        if has("series") then (.times | length) as $n | all(.series[]; (.recalls | length) == $n)
        else (.header | length) as $n | all(.rows[]; length == $n) end)' \
        "$smoke/experiments.json" >/dev/null || {
        echo "experiments all -json wrote a malformed document"; exit 1; }
else
    echo "(skipped: jq not installed)"
fi

# The benchmark harness is a module of its own (bench/go.mod) that
# imports the library's internal packages, so the root's ./... never
# builds it: vet it and run its quick in-process suite (< 10 s) here, so
# that a library change that breaks the harness fails the gate.
echo "== bench module =="
(cd bench && go vet ./... && go test ./...)

# Fast-fail on the engine before the full suite: it is where host
# concurrency, spills and lost-lease re-dispatch interleave, so it gets
# a dedicated race-enabled pass.
echo "== go test -race (engine) =="
go test -race -count=1 ./internal/mapreduce

# The task runner is the most concurrency-dense code in the repo (two
# phases on one bounded pool, reduce inputs read by several passes at
# once) — the map → reduce barrier, the failed-run settlement — so
# hammer all of it repeatedly under the race detector.
echo "== go test -race (task runner) =="
go test -race -count=3 -run 'RunTasks|JobGraph|Pipelined|ReduceWaitsForEveryMap|ConcurrentIter' ./internal/mapreduce
# Tasks borrow their working memory from process-wide pools, and a
# buffer only changes hands between runs inside one process: tasks of
# very different shapes on one stage, and whole Resolves overlapping.
go test -race -count=5 -run 'StageReuseAcrossTaskShapes' ./internal/mapreduce
go test -race -count=5 -run 'ConcurrentResolvesShareNothing' .

# The whole-pipeline oracle (internal/core/oracle_test.go): whole
# Resolves on its fixed seed list, held to a reference resolver written
# from the paper's definitions, under the race detector.
echo "== go test -race (oracle) =="
go test -race -count=1 -run '^TestOracle$' ./internal/core

echo "== go test -race =="
go test -race ./...

# Every fuzz target in the module gets a short coverage-guided run; what
# each one holds, and why, is its doc comment. Minimising a new input is
# capped so that the ten seconds go to fuzzing.
echo "== fuzz =="
fuzzlist="$(go test -list '^Fuzz' ./...)"
printf '%s\n' "$fuzzlist" |
    awk '/^Fuzz/ { t = t " " $1 } /^ok / { if (t != "") print $2 t; t = "" }' |
    while read -r pkg targets; do
        for target in $targets; do
            echo "-- $target ($pkg)"
            go test -run '^$' -fuzz "^$target\$" -fuzztime 10s -fuzzminimizetime 200x "$pkg" </dev/null
        done
    done

# Bounded-memory smoke: the same workload with and without a tight
# memory budget must produce byte-identical duplicate pairs and quality
# telemetry, and the budget run must actually have spilled and report its
# spilled and charged bytes. The budget
# run also serves the live status server and writes the structured event log, so this one pass also
# gates the §13 live introspection layer: the endpoints must answer
# while the run is in flight, the mid-run scrape must be Prometheus
# text, the event log must validate, and none of it may perturb the
# byte-determinism cmp below. The workload is sized so that the budget
# run lasts well over half a second on a 2-core box (~0.8 s at
# n=20000): any shorter, and the curls below race the end of the run.
echo "== bounded-memory + live-introspection smoke =="
# The polls below may read a log before the background run has opened
# it, so the logs exist from the start.
: >"$smoke/stderr.log"
: >"$smoke/dist-stderr.log"
go run ./cmd/proger -generate publications -n 20000 -seed 3 -machines 4 \
    -out "$smoke/base.tsv" -quality-out "$smoke/base-quality.json" 2>/dev/null
go run ./cmd/proger -generate publications -n 20000 -seed 3 -machines 4 \
    -mem-budget 64K -spill-dir "$smoke" -metrics-out "$smoke/budget.prom" \
    -status 127.0.0.1:0 -events "$smoke/events.jsonl" \
    -out "$smoke/budget.tsv" -quality-out "$smoke/budget-quality.json" \
    2>"$smoke/stderr.log" &
runpid=$!
# The binary prints "proger: status listening on http://ADDR/" as soon
# as the listener is bound; poll for it, then curl the endpoints while
# the run executes.
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's|^proger: status listening on http://\([^/]*\)/$|\1|p' "$smoke/stderr.log")"
    if [ -n "$addr" ]; then break; fi
    kill -0 "$runpid" 2>/dev/null || break
    sleep 0.1
done
[ -n "$addr" ] || { echo "status server never announced its address"; cat "$smoke/stderr.log"; exit 1; }
curl -fsS "http://$addr/healthz" | grep -q '^ok' || {
    echo "/healthz unhealthy during run"; exit 1; }
curl -fsS "http://$addr/progress" | grep -q '"jobs"' || {
    echo "/progress returned no snapshot"; exit 1; }
curl -fsS "http://$addr/metrics" > "$smoke/live.prom" || {
    echo "/metrics scrape failed"; exit 1; }
if grep -vE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$)' "$smoke/live.prom" | grep -q .; then
    echo "mid-run /metrics scrape is not valid Prometheus text:"; cat "$smoke/live.prom"; exit 1
fi
wait "$runpid" || { echo "budget run failed:"; cat "$smoke/stderr.log"; exit 1; }
go run ./scripts/tracecheck -events "$smoke/events.jsonl"
cmp "$smoke/base.tsv" "$smoke/budget.tsv" || {
    echo "bounded-memory run changed the duplicate pairs"; exit 1; }
cmp "$smoke/base-quality.json" "$smoke/budget-quality.json" || {
    echo "bounded-memory run changed the quality telemetry"; exit 1; }
grep -q '^mr_membudget_forced_spills [1-9]' "$smoke/budget.prom" || {
    echo "64K budget forced no spills — the smoke test is not exercising out-of-core paths"
    exit 1; }
for key in mr_membudget_spilled_bytes pipeline_membudget_charged_bytes; do
    grep -q "^$key [1-9]" "$smoke/budget.prom" || {
        echo "bounded-memory run reported no $key"; exit 1; }
done

# The same gate on the benchmark's persons-spill shape (persons-exact:
# Soundex blocking, exact rules, no similarity kernel) under the same
# budget: byte-identical pairs and quality telemetry, and real spills.
echo "== persons-exact bounded-memory smoke =="
persons="go run ./cmd/proger -generate persons-exact -n 3000 -machines 4"
$persons -out "$smoke/pbase.tsv" -quality-out "$smoke/pbase-quality.json" 2>/dev/null
$persons -mem-budget 64K -spill-dir "$smoke" -metrics-out "$smoke/pbudget.prom" \
    -out "$smoke/pbudget.tsv" -quality-out "$smoke/pbudget-quality.json" 2>/dev/null
cmp "$smoke/pbase.tsv" "$smoke/pbudget.tsv" || {
    echo "persons-exact bounded-memory run changed the duplicate pairs"; exit 1; }
cmp "$smoke/pbase-quality.json" "$smoke/pbudget-quality.json" || {
    echo "persons-exact bounded-memory run changed the quality telemetry"; exit 1; }
grep -q '^mr_membudget_forced_spills [1-9]' "$smoke/pbudget.prom" || {
    echo "persons-exact 64K budget forced no spills"; exit 1; }
for key in mr_membudget_spilled_bytes pipeline_membudget_charged_bytes; do
    grep -q "^$key [1-9]" "$smoke/pbudget.prom" || {
        echo "persons-exact bounded-memory run reported no $key"; exit 1; }
done

# Distributed-transport smoke: the same workload run single-process and
# across real OS processes (master + 2 forked workers) must produce
# byte-identical pairs, trace, and quality telemetry — first clean,
# then with a worker process that kills itself as it takes its second
# lease, so the lease-expiry/re-lease path is exercised end to end. The
# clean local run's trace and quality
# export go through tracecheck (span categories; curve and calibration
# invariants). The event logs gate the dist event grammar
# through tracecheck — the clean run with full fleet observability on (status
# server, merged multi-process event log) — and must show actual lease
# traffic. The /fleet endpoint must report both forked workers while
# the run is in flight.
echo "== distributed transport smoke =="
go run ./cmd/proger -generate publications -n 4000 -seed 5 -machines 2 \
    -out "$smoke/dloc.tsv" -trace "$smoke/dloc-trace.json" \
    -quality-out "$smoke/dloc-quality.json" 2>/dev/null
go run ./scripts/tracecheck -quality "$smoke/dloc-quality.json" "$smoke/dloc-trace.json"
go run ./cmd/proger -generate publications -n 4000 -seed 5 -machines 2 \
    -dist 2 -status 127.0.0.1:0 -events "$smoke/dist-events.jsonl" \
    -out "$smoke/ddist.tsv" -trace "$smoke/ddist-trace.json" \
    -quality-out "$smoke/ddist-quality.json" 2>"$smoke/dist-stderr.log" &
distpid=$!
# The master's announce line is unprefixed; forked workers' stderr is
# relayed under a "w<id>: " prefix, so the anchored sed only matches
# the master's own status address.
daddr=""
for _ in $(seq 1 100); do
    daddr="$(sed -n 's|^proger: status listening on http://\([^/]*\)/$|\1|p' "$smoke/dist-stderr.log" | head -n 1)"
    if [ -n "$daddr" ]; then break; fi
    kill -0 "$distpid" 2>/dev/null || break
    sleep 0.1
done
[ -n "$daddr" ] || { echo "dist master never announced its status address"; cat "$smoke/dist-stderr.log"; exit 1; }
fleet_ok=""
for _ in $(seq 1 100); do
    n="$(curl -fsS "http://$daddr/fleet" 2>/dev/null | grep -o '"id"' | wc -l)"
    if [ "$n" -ge 2 ]; then fleet_ok=1; break; fi
    kill -0 "$distpid" 2>/dev/null || break
    sleep 0.1
done
[ -n "$fleet_ok" ] || {
    echo "/fleet never reported 2 registered workers"; cat "$smoke/dist-stderr.log"; exit 1; }
wait "$distpid" || { echo "distributed run failed:"; cat "$smoke/dist-stderr.log"; exit 1; }
cmp "$smoke/dloc.tsv" "$smoke/ddist.tsv" || {
    echo "distributed run changed the duplicate pairs"; exit 1; }
cmp "$smoke/dloc-trace.json" "$smoke/ddist-trace.json" || {
    echo "distributed run changed the trace"; exit 1; }
cmp "$smoke/dloc-quality.json" "$smoke/ddist-quality.json" || {
    echo "distributed run changed the quality telemetry"; exit 1; }
go run ./scripts/tracecheck -events "$smoke/dist-events.jsonl"
grep -q '"event":"lease"' "$smoke/dist-events.jsonl" || {
    echo "distributed run granted no leases — the smoke test is not distributing work"; exit 1; }
go run ./cmd/proger -generate publications -n 1000 -seed 5 -machines 2 \
    -out "$smoke/floc.tsv" -trace "$smoke/floc-trace.json" 2>/dev/null
go run ./cmd/proger -generate publications -n 1000 -seed 5 -machines 2 \
    -dist 2 -worker-die-after 1 -lease-ttl 400ms -events "$smoke/fdist-events.jsonl" \
    -out "$smoke/fdist.tsv" -trace "$smoke/fdist-trace.json" 2>/dev/null
cmp "$smoke/floc.tsv" "$smoke/fdist.tsv" || {
    echo "worker loss changed the duplicate pairs"; exit 1; }
cmp "$smoke/floc-trace.json" "$smoke/fdist-trace.json" || {
    echo "worker loss changed the trace"; exit 1; }
go run ./scripts/tracecheck -events "$smoke/fdist-events.jsonl"
grep -q '"event":"lease.expire"' "$smoke/fdist-events.jsonl" || {
    echo "killed worker expired no leases — the smoke test is not exercising worker loss"; exit 1; }

# The hand-started fleet shape: a -master carrying resolution flags away
# from their defaults and one worker started with nothing but -worker
# -connect. The worker resolves the run the master hands it at
# registration, so pairs and quality telemetry equal the local run's.
hand="-generate publications -n 2000 -seed 3 -machines 2 -rule title:edit:1 -match-threshold 0.9 -scheduler lpt"
go run ./cmd/proger $hand -out "$smoke/hloc.tsv" -quality-out "$smoke/hloc-quality.json" 2>/dev/null
go run ./cmd/proger $hand -master -listen "unix:$smoke/master.sock" \
    -out "$smoke/hmaster.tsv" -quality-out "$smoke/hmaster-quality.json" 2>"$smoke/hmaster-stderr.log" &
handpid=$!
for _ in $(seq 1 300); do
    [ -S "$smoke/master.sock" ] && break
    kill -0 "$handpid" 2>/dev/null || break
    sleep 0.1
done
[ -S "$smoke/master.sock" ] || {
    echo "hand-started master never listened"; cat "$smoke/hmaster-stderr.log"; exit 1; }
go run ./cmd/proger -worker -connect "unix:$smoke/master.sock" 2>"$smoke/hworker-stderr.log" || {
    echo "bare worker failed:"; cat "$smoke/hworker-stderr.log"; kill "$handpid"; exit 1; }
wait "$handpid" || { echo "hand-started master failed:"; cat "$smoke/hmaster-stderr.log"; exit 1; }
cmp "$smoke/hloc.tsv" "$smoke/hmaster.tsv" || {
    echo "a bare worker changed the duplicate pairs"; exit 1; }
cmp "$smoke/hloc-quality.json" "$smoke/hmaster-quality.json" || {
    echo "a bare worker changed the quality telemetry"; exit 1; }

# Basic baseline smoke: the single-job baseline (-basic) run plain,
# under a 64K memory budget, and across a
# master and 2 forked workers must produce byte-identical pairs and
# quality telemetry. The budget run must actually have spilled and the
# fleet run must actually have leased tasks.
echo "== basic baseline smoke =="
basic="go run ./cmd/proger -generate publications -n 1000 -seed 5 -machines 2 -basic"
$basic -out "$smoke/bloc.tsv" -quality-out "$smoke/bloc-quality.json" 2>/dev/null
$basic -mem-budget 64K -spill-dir "$smoke" \
    -metrics-out "$smoke/bbudget.prom" \
    -out "$smoke/bbudget.tsv" -quality-out "$smoke/bbudget-quality.json" 2>/dev/null
$basic -dist 2 -events "$smoke/bdist-events.jsonl" \
    -out "$smoke/bdist.tsv" -quality-out "$smoke/bdist-quality.json" 2>/dev/null
for run in bbudget bdist; do
    cmp "$smoke/bloc.tsv" "$smoke/$run.tsv" || {
        echo "basic $run run changed the duplicate pairs"; exit 1; }
    cmp "$smoke/bloc-quality.json" "$smoke/$run-quality.json" || {
        echo "basic $run run changed the quality telemetry"; exit 1; }
done
grep -q '^mr_membudget_forced_spills [1-9]' "$smoke/bbudget.prom" || {
    echo "basic 64K budget forced no spills"; exit 1; }
for key in mr_membudget_spilled_bytes pipeline_membudget_charged_bytes; do
    grep -q "^$key [1-9]" "$smoke/bbudget.prom" || {
        echo "basic bounded-memory run reported no $key"; exit 1; }
done
grep -q '"event":"lease"' "$smoke/bdist-events.jsonl" || {
    echo "basic distributed run granted no leases"; exit 1; }

echo "check: OK"
