package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// quickSuite runs every workload in-process at -quick size, once per
// test binary.
func quickSuite(t *testing.T) *results {
	t.Helper()
	var selected []*workload
	for i := range workloads {
		selected = append(selected, &workloads[i])
	}
	res, err := runSuite(io.Discard, selected, runConfig{Seed: 1, Quick: true, WorkDir: t.TempDir()}, runWorkload)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQuickSuite is the whole benchmark at one twentieth of its size:
// every workload and every named metric must come back, finite and
// non-negative, with no failed operation and one digest for the four
// persons-* workloads (runSuite fails on the cross-workload checks).
func TestQuickSuite(t *testing.T) {
	res := quickSuite(t)
	for _, wl := range workloads {
		wr := res.Workloads[wl.Name]
		if wr == nil {
			t.Fatalf("%s: missing from the results", wl.Name)
		}
		if wr.OpsAttempted == 0 || wr.OpsFailed != 0 {
			t.Errorf("%s: %d of %d operations failed", wl.Name, wr.OpsFailed, wr.OpsAttempted)
		}
		check := func(defs []metricDef, got map[string]sample) {
			if len(got) != len(defs) {
				t.Errorf("%s: %d metrics reported, %d defined", wl.Name, len(got), len(defs))
			}
			for _, d := range defs {
				s, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", wl.Name, d.Name)
				case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
					t.Errorf("%s: %s = %v", wl.Name, d.Name, s.Value)
				case s.Value < 0 && !strings.Contains(d.Name, "overhead"):
					// An overhead is a difference of two timings and
					// may honestly read below zero.
					t.Errorf("%s: %s = %v, want >= 0", wl.Name, d.Name, s.Value)
				case s.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", wl.Name, d.Name, s.Unit, d.Unit)
				}
			}
		}
		check(endToEnd, wr.EndToEnd)
		check(perLayer, wr.PerLayer)
		for _, d := range endToEnd {
			if wr.EndToEnd[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", wl.Name, d.Name)
			}
		}
	}
	if a, b := res.Workloads["persons-exact"].Digest, res.Workloads["pubs-local"].Digest; a == b {
		t.Error("different datasets share a digest")
	}
}

// TestMetricTables holds the names to the limits BENCHMARK.json is
// checked against.
func TestMetricTables(t *testing.T) {
	if n := len(buildManifest().Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads in the manifest, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if !strings.Contains(d.Name, ".") {
			t.Errorf("%s: a per-layer metric is named layer.metric", d.Name)
		}
	}
	if d := endToEnd[4]; d.Name != mSetup || d.Unit != "s" || d.Better != lower {
		t.Errorf("setup_s must be a lower-is-better time in s, got %+v", d)
	}
}

// TestReadmeNamesEverything keeps the glossary in README.md complete.
func TestReadmeNamesEverything(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not describe workload %s", w.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+d.Name+"`") {
			t.Errorf("README.md does not define metric %s", d.Name)
		}
	}
}

// TestManifestInStep keeps the committed BENCHMARK.json equal to what
// -manifest prints from the tables.
func TestManifestInStep(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, err = json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
}

// TestDigestCheckFires tampers with a copy of a good result — one
// event's pair flipped to another — and expects both layers of the
// byte-identity gate to notice: the per-operation check, and the
// cross-workload check over persons-*.
func TestDigestCheckFires(t *testing.T) {
	wl, err := findWorkload("persons-exact")
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(wl, t.TempDir(), spillBudget)
	h.in = wl.generate(wl.Entities/quickDivisor, 1)
	good, err := h.op(plain, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.check(good.res); err != nil {
		t.Fatalf("an untouched result fails the check: %v", err)
	}
	tampered := *good.res
	tampered.Events = append(tampered.Events[:0:0], good.res.Events...)
	tampered.Events[0].Pair.Hi++
	if err := h.check(&tampered); err == nil {
		t.Error("a flipped event passed the digest check")
	}

	res := &results{Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		res.Workloads[w.Name] = &workloadResult{Digest: "d-" + strings.SplitN(w.Name, "-", 2)[0], PerLayer: map[string]sample{}}
	}
	res.Workloads["persons-spill"].PerLayer[lForcedSpills] = single(1)
	res.Workloads["persons-dist2"].PerLayer[lLeasesGranted] = single(1)
	if problems := crossCheck(res); len(problems) != 0 {
		t.Fatalf("consistent results flagged: %v", problems)
	}
	res.Workloads["persons-barrier"].Digest = digestOf(&tampered)
	problems := crossCheck(res)
	if len(problems) != 1 || res.Workloads["persons-barrier"].OpsFailed != 1 {
		t.Errorf("a differing persons-barrier digest gave problems %v and %d failed operations", problems, res.Workloads["persons-barrier"].OpsFailed)
	}
}

func TestVerdict(t *testing.T) {
	wall := metricDef{Name: mResolveWall, Better: lower, Bound: 0.10}
	rate := metricDef{Name: mEntitiesPerS, Better: higher, Bound: 0.10}
	s := func(v, min, max float64) sample { return sample{Value: v, Min: min, Max: max, N: 5} }
	for _, c := range []struct {
		what     string
		d        metricDef
		old, new sample
		want     string
	}{
		{"steady", wall, s(1, 0.98, 1.02), s(1.03, 1.0, 1.05), "ok"},
		{"slower than the bound", wall, s(1, 0.98, 1.02), s(1.2, 1.18, 1.22), "regressed"},
		{"lower rate than the bound", rate, s(100, 98, 102), s(80, 79, 81), "regressed"},
		{"spread wider than the bound", wall, s(1, 0.9, 1.1), s(1.02, 0.95, 1.15), "unresolved"},
		{"wide spread, yet every new sample better", wall, s(1, 0.9, 1.1), s(0.7, 0.6, 0.8), "ok"},
		{"higher rate", rate, s(100, 98, 102), s(120, 118, 122), "ok"},
	} {
		if got, _ := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.what, got, c.want)
		}
	}
}

// TestCompareFiles drives -compare end to end on stored files.
func TestCompareFiles(t *testing.T) {
	mk := func(wall float64, failed int) string {
		r := &results{Schema: 1, Workloads: map[string]*workloadResult{
			"pubs-local": {OpsAttempted: 10, OpsFailed: failed, Digest: "d",
				EndToEnd: map[string]sample{mResolveWall: {Value: wall, Min: wall, Max: wall, N: 5}}},
		}}
		path := t.TempDir() + "/r.json"
		if err := writeResults(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(1, 0)
	if err := compareFiles(io.Discard, base, mk(1.05, 0)); err != nil {
		t.Errorf("a 5%% slowdown inside the bound failed: %v", err)
	}
	if err := compareFiles(io.Discard, base, mk(1.5, 0)); err == nil {
		t.Error("a 50% slowdown passed")
	}
	if err := compareFiles(io.Discard, base, mk(1, 1)); err == nil {
		t.Error("a higher share of failed operations passed")
	}
}
