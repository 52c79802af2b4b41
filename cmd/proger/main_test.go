package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"proger"
	"proger/internal/core"
	"proger/internal/estimate"
	"proger/internal/experiments"
)

func testDataset() *proger.Dataset {
	ds := proger.NewDataset(proger.MustSchema("name", "state"))
	ds.Append("John Lopez", "HI")
	ds.Append("Mary Gibson", "AZ")
	return ds
}

func TestBuildFamiliesCustom(t *testing.T) {
	ds := testDataset()
	fams := buildFamilies(ds, stringList{"name:2,3,5", "state:2"})
	if len(fams) != 2 {
		t.Fatalf("families = %d", len(fams))
	}
	if fams[0].Attr != 0 || len(fams[0].PrefixLens) != 3 || fams[0].Index != 1 {
		t.Errorf("family 0 = %+v", fams[0])
	}
	if fams[1].Attr != 1 || fams[1].Index != 2 {
		t.Errorf("family 1 = %+v", fams[1])
	}
}

func TestBuildFamiliesPresets(t *testing.T) {
	fams := loadWorkload("", "publications", 50, 1, "", nil, nil, 0.75, false).Fams
	if len(fams) != 3 || fams[0].PrefixLens[0] != 2 {
		t.Errorf("publications preset = %+v", fams)
	}
	fams = loadWorkload("", "books", 50, 1, "", nil, nil, 0.75, false).Fams
	if len(fams) != 3 || fams[0].PrefixLens[0] != 3 {
		t.Errorf("books preset = %+v", fams)
	}
}

// TestTrainSet: a generated publications run trains its model on n/4
// entities (at least 500) generated from seed + 100000; people trains
// none.
func TestTrainSet(t *testing.T) {
	w := loadWorkload("", "publications", 4000, 1, "", nil, nil, 0.75, true)
	ds, gt := proger.GeneratePublications(1000, 100001)
	if w.Model == nil || !reflect.DeepEqual(w.Model, estimate.DupModel(estimate.Train(ds, gt, w.Fams))) {
		t.Error("publications model is not trained on its train set")
	}
	if w := loadWorkload("", "people", 4000, 1, "", nil, nil, 0.75, true); w.Model != nil {
		t.Error("people has no train set")
	}
}

// TestWorkloadsAreTheCatalogues: for every name -generate takes, the
// CLI resolves with the catalogue workload's families, matcher and
// policy, and trains its duplicate model exactly when the catalogue
// does — for the families the run uses, and never for -basic.
func TestWorkloadsAreTheCatalogues(t *testing.T) {
	trained := map[string]bool{"publications": true, "books": true, "people": false, "persons": false, "persons-exact": false}
	if names := experiments.Names(); len(names) != len(trained) {
		t.Fatalf("catalogue names %v, the table here %v", names, trained)
	}
	const n, seed = 600, 2
	for _, name := range experiments.Names() {
		want, err := experiments.Generate(name, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		want.Train(n, seed)
		got := loadWorkload("", name, n, seed, "", nil, nil, 0.75, true)
		if !reflect.DeepEqual(got.Fams, want.Fams) || !reflect.DeepEqual(got.Matcher, want.Matcher) || got.Policy != want.Policy {
			t.Errorf("%s: CLI families %v, matcher %+v, policy %+v; catalogue %v, %+v, %+v",
				name, got.Fams, got.Matcher, got.Policy, want.Fams, want.Matcher, want.Policy)
		}
		if !reflect.DeepEqual(got.Model, want.Model) || (got.Model != nil) != trained[name] {
			t.Errorf("%s: CLI model %v, catalogue %v, want trained = %v", name, got.Model, want.Model, trained[name])
		}
		if basic := loadWorkload("", name, n, seed, "", nil, nil, 0.75, false); basic.Model != nil {
			t.Errorf("%s: -basic trained a model", name)
		}
	}
	blocks := stringList{"title:2,4", "venue:3"}
	got := loadWorkload("", "publications", n, seed, "", blocks, nil, 0.75, true)
	want, _ := experiments.Generate("publications", n, seed)
	want.Fams = buildFamilies(want.DS, blocks)
	want.Train(n, seed)
	if !reflect.DeepEqual(got.Fams, want.Fams) || !reflect.DeepEqual(got.Model, want.Model) {
		t.Error("-block: the model is not trained for the families the run uses")
	}
}

// TestGeneratedRunIsCatalogueResolve: `proger -generate NAME` writes
// the pairs core.Resolve finds on the catalogue workload, trained, with
// its own mechanism (PSNM for books, SN for persons-exact) and the
// flags' defaults (our scheduler, 10 machines × 2 slots).
func TestGeneratedRunIsCatalogueResolve(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		seed int64
	}{{"persons-exact", 1500, 4}, {"books", 1500, 4}} {
		out := t.TempDir() + "/pairs.tsv"
		cmd := exec.Command(os.Args[0], "-generate", c.name, "-n", fmt.Sprint(c.n), "-seed", fmt.Sprint(c.seed), "-out", out)
		cmd.Env = append(os.Environ(), "PROGER_TEST_MAIN=1")
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("proger -generate %s: %v\n%s", c.name, err, msg)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		w, err := experiments.Generate(c.name, c.n, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		w.Train(c.n, c.seed)
		res, err := core.Resolve(w.DS, w.Options(10, proger.SchedulerOurs))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) == 0 {
			t.Fatalf("%s: Resolve found no duplicates; the test compares nothing", c.name)
		}
		want := "#lo\thi\ttime\n"
		for _, ev := range res.Events {
			want += fmt.Sprintf("%d\t%d\t%.1f\n", ev.Pair.Lo, ev.Pair.Hi, ev.Time)
		}
		if string(got) != want {
			t.Errorf("%s: the CLI wrote %d bytes of pairs, Resolve's %d differ", c.name, len(got), len(want))
		}
	}
}

// TestMain runs the command itself when a test re-executes the test
// binary with PROGER_TEST_MAIN set.
func TestMain(m *testing.M) {
	if os.Getenv("PROGER_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestBuildMatcherCustom(t *testing.T) {
	ds := testDataset()
	m := buildMatcher(ds, stringList{"name:edit:0.8", "state:exact:0.2"}, 0.7)
	if m == nil || len(m.Rules) != 2 {
		t.Fatalf("matcher = %+v", m)
	}
	if m.Threshold != 0.7 {
		t.Errorf("threshold = %v", m.Threshold)
	}
	// Weights normalized.
	sum := m.Rules[0].Weight + m.Rules[1].Weight
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum = %v", sum)
	}
}

func TestBuildMatcherWithMaxChars(t *testing.T) {
	pubs, _ := proger.GeneratePublications(50, 1)
	m := buildMatcher(pubs, stringList{"abstract:edit:1:350"}, 0.8)
	if m.Rules[0].MaxChars != 350 {
		t.Errorf("maxchars = %d", m.Rules[0].MaxChars)
	}
}

func TestPickers(t *testing.T) {
	if pickMechanism("sn").Name() != "SN" || pickMechanism("psnm").Name() != "PSNM" {
		t.Error("mechanism picker broken")
	}
	if pickScheduler("ours") != proger.SchedulerOurs ||
		pickScheduler("nosplit") != proger.SchedulerNoSplit ||
		pickScheduler("lpt") != proger.SchedulerLPT {
		t.Error("scheduler picker broken")
	}
}

func TestStringListFlag(t *testing.T) {
	var l stringList
	if err := l.Set("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("b"); err != nil {
		t.Fatal(err)
	}
	if l.String() != "a;b" || len(l) != 2 {
		t.Errorf("stringList = %v", l)
	}
}

func TestBuildFamiliesSoundex(t *testing.T) {
	ds := testDataset()
	fams := buildFamilies(ds, stringList{"name:soundex:1,2,4", "state:2"})
	if fams[0].Kind != proger.KeySoundex {
		t.Errorf("kind = %v, want soundex", fams[0].Kind)
	}
	if len(fams[0].PrefixLens) != 3 || fams[0].PrefixLens[2] != 4 {
		t.Errorf("lens = %v", fams[0].PrefixLens)
	}
	if fams[1].Kind != proger.KeyPrefix {
		t.Errorf("default kind = %v, want prefix", fams[1].Kind)
	}
	explicit := buildFamilies(ds, stringList{"name:prefix:2,3"})
	if explicit[0].Kind != proger.KeyPrefix {
		t.Error("explicit prefix kind")
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64 // -1: an error naming the input as given
	}{
		{"512", 512},
		{"64K", 64 << 10},
		{"2g", 2 << 30},
		{"", 0},
		{"0M", -1},
		{"-1K", -1},
		{"x", -1},
		{"17179869185G", -1}, // v·2³⁰ wraps to exactly 1 GiB
		{"9999999999G", -1},  // v·2³⁰ wraps negative
	} {
		got, err := parseSize(tc.in)
		if tc.want < 0 {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.in)) {
				t.Errorf("parseSize(%q) = %d, %v; want an error quoting %q", tc.in, got, err, tc.in)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

// TestFleetWaitCopiesLastLines: wait returns only once a worker's relay
// has copied every line written before its pipe closed, the last one
// included, unterminated or not.
func TestFleetWaitCopiesLastLines(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var f fleet
	f.relay(pr, &out, "w1: ")
	fmt.Fprint(pw, "lease 3 failed\nworker exiting: disk full")
	pw.Close()
	f.wait()
	if got, want := out.String(), "w1: lease 3 failed\nw1: worker exiting: disk full\n"; got != want {
		t.Errorf("relayed %q, want %q", got, want)
	}
}
