package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

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

// generated is the run of -generate name -n n -seed seed, with -basic
// when basic.
func generated(name string, n int, seed int64, basic bool) *run {
	return &run{Generate: name, N: n, Seed: seed, Threshold: 0.75, Basic: basic}
}

func TestBuildFamiliesPresets(t *testing.T) {
	fams := loadWorkload(generated("publications", 50, 1, true)).Fams
	if len(fams) != 3 || fams[0].PrefixLens[0] != 2 {
		t.Errorf("publications preset = %+v", fams)
	}
	fams = loadWorkload(generated("books", 50, 1, true)).Fams
	if len(fams) != 3 || fams[0].PrefixLens[0] != 3 {
		t.Errorf("books preset = %+v", fams)
	}
}

// TestTrainSet: a generated publications run trains its model on n/4
// entities (at least 500) generated from seed + 100000; people trains
// none.
func TestTrainSet(t *testing.T) {
	w := loadWorkload(generated("publications", 4000, 1, false))
	ds, gt, _, err := proger.Workload("publications", 1000, 100001)
	if err != nil {
		t.Fatal(err)
	}
	if w.Model == nil || !reflect.DeepEqual(w.Model, estimate.DupModel(estimate.Train(ds, gt, w.Fams))) {
		t.Error("publications model is not trained on its train set")
	}
	if w := loadWorkload(generated("people", 4000, 1, false)); w.Model != nil {
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
		got := loadWorkload(generated(name, n, seed, false))
		if !reflect.DeepEqual(got.Fams, want.Fams) || !reflect.DeepEqual(got.Matcher, want.Matcher) || got.Policy != want.Policy {
			t.Errorf("%s: CLI families %v, matcher %+v, policy %+v; catalogue %v, %+v, %+v",
				name, got.Fams, got.Matcher, got.Policy, want.Fams, want.Matcher, want.Policy)
		}
		if !reflect.DeepEqual(got.Model, want.Model) || (got.Model != nil) != trained[name] {
			t.Errorf("%s: CLI model %v, catalogue %v, want trained = %v", name, got.Model, want.Model, trained[name])
		}
		if basic := loadWorkload(generated(name, n, seed, true)); basic.Model != nil {
			t.Errorf("%s: -basic trained a model", name)
		}
	}
	blocks := stringList{"title:2,4", "venue:3"}
	r := generated("publications", n, seed, false)
	r.Blocks = blocks
	got := loadWorkload(r)
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
	pubs, _, _, err := proger.Workload("publications", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
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

// command is this binary re-executed as proger with args.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PROGER_TEST_MAIN=1")
	return cmd
}

// TestHandStartedWorkerTakesTheMastersRun: a -master and one worker
// started by hand with nothing but -worker -connect write the pairs,
// trace and quality export of the local run with the master's flags,
// whichever resolution flags the master carries; the worker resolves
// the run the master hands it at registration. A worker given a
// resolution flag refuses to start.
func TestHandStartedWorkerTakesTheMastersRun(t *testing.T) {
	base := []string{"-generate", "publications", "-n", "2000", "-seed", "3", "-machines", "2"}
	for _, extra := range [][]string{
		{"-rule", "title:edit:1", "-match-threshold", "0.9", "-scheduler", "lpt"},
		{"-mechanism", "psnm"},
		{"-basic"},
	} {
		t.Run(strings.Join(extra, " "), func(t *testing.T) {
			dir := t.TempDir()
			outputs := func(prefix string) []string {
				return []string{"-out", dir + "/" + prefix + ".tsv", "-trace", dir + "/" + prefix + "-trace.json",
					"-quality-out", dir + "/" + prefix + "-quality.json"}
			}
			flags := append(append([]string{}, base...), extra...)
			if msg, err := command(append(flags, outputs("local")...)...).CombinedOutput(); err != nil {
				t.Fatalf("local run: %v\n%s", err, msg)
			}

			// A unix socket path must stay short; the test's TempDir can be long.
			sockDir, err := os.MkdirTemp("", "proger")
			if err != nil {
				t.Fatal(err)
			}
			defer os.RemoveAll(sockDir)
			sock := sockDir + "/master.sock"
			var masterOut bytes.Buffer
			master := command(append(append(flags, "-master", "-listen", "unix:"+sock), outputs("fleet")...)...)
			master.Stdout, master.Stderr = &masterOut, &masterOut
			if err := master.Start(); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- master.Wait() }()
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				if _, err := os.Stat(sock); err == nil {
					break
				}
				select {
				case err := <-done:
					t.Fatalf("the master exited before listening: %v\n%s", err, masterOut.Bytes())
				default:
				}
				if time.Now().After(deadline) {
					master.Process.Kill()
					t.Fatalf("the master never listened on %s: %v\n%s", sock, <-done, masterOut.Bytes())
				}
			}
			if msg, err := command("-worker", "-connect", "unix:"+sock).CombinedOutput(); err != nil {
				master.Process.Kill()
				<-done
				t.Fatalf("bare worker: %v\n%s", err, msg)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("master: %v\n%s", err, masterOut.Bytes())
				}
			case <-time.After(60 * time.Second):
				master.Process.Kill()
				t.Fatalf("the master did not finish after its worker left\n%s", <-done)
			}
			for _, suffix := range []string{".tsv", "-trace.json", "-quality.json"} {
				local, err := os.ReadFile(dir + "/local" + suffix)
				if err != nil {
					t.Fatal(err)
				}
				fleet, err := os.ReadFile(dir + "/fleet" + suffix)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(local, fleet) {
					t.Errorf("%s: the fleet wrote %d bytes, the local run %d that differ", suffix, len(fleet), len(local))
				}
			}
		})
	}

	msg, err := command("-worker", "-connect", "unix:"+t.TempDir()+"/none.sock", "-rule", "title:edit:1").CombinedOutput()
	if err == nil || !strings.Contains(string(msg), "-rule") {
		t.Errorf("a worker given -rule: %v\n%s; want a non-zero exit naming -rule", err, msg)
	}
}

// TestUnreadFlagsAreRefused: a resolution flag that the chosen pipeline
// never reads is an error naming it, not a setting silently dropped.
func TestUnreadFlagsAreRefused(t *testing.T) {
	for _, c := range []struct {
		args   []string
		refuse string // "" when the run is accepted
	}{
		{[]string{"-match-threshold", "0.95"}, "-match-threshold"},
		{[]string{"-rule", "title:edit:1", "-match-threshold", "0.95"}, ""},
		{[]string{"-window", "3"}, "-window"},
		{[]string{"-popcorn", "0.1"}, "-popcorn"},
		{[]string{"-basic", "-window", "3", "-popcorn", "0.1"}, ""},
		{[]string{"-basic", "-scheduler", "lpt"}, "-scheduler"},
		{[]string{"-scheduler", "lpt"}, ""},
		{[]string{"-input", "x.tsv", "-n", "500"}, "-n"},
		{[]string{"-input", "x.tsv", "-seed", "9"}, "-seed"},
		{[]string{"-input", "x.tsv", "-truth", "t.tsv"}, ""},
		{[]string{"-n", "500", "-seed", "9"}, ""},
		{[]string{"-truth", "t.tsv"}, "-truth"},
		{[]string{"-generate", "people", "-n", "50"}, "-n"},
		{[]string{"-generate", "people", "-seed", "3"}, "-seed"},
		{[]string{"-generate", "people", "-machines", "2"}, ""},
		{nil, ""},
	} {
		fs := flag.NewFlagSet("proger", flag.ContinueOnError)
		r := bindRun(fs)
		args := c.args
		if !slices.Contains(args, "-input") && !slices.Contains(args, "-generate") {
			args = append([]string{"-generate", "publications"}, args...)
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		err := r.refuseUnread(fs)
		switch {
		case c.refuse == "" && err != nil:
			t.Errorf("%q: refused: %v", c.args, err)
		case c.refuse != "" && (err == nil || !strings.Contains(err.Error(), c.refuse)):
			t.Errorf("%q: err = %v, want an error naming %s", c.args, err, c.refuse)
		}
	}
}

// TestRunRoundTrip: a worker decodes the master's run into the run the
// master's flags filled, and a run it cannot read is an error, not a
// crash or a field silently dropped.
func TestRunRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("proger", flag.ContinueOnError)
	want := bindRun(fs)
	if err := fs.Parse([]string{"-input", "x.tsv", "-block", "name:2,3", "-block", "state:2", "-rule", "name:edit:1",
		"-match-threshold", "0.8", "-mechanism", "psnm", "-basic", "-window", "4", "-popcorn", "0.2",
		"-machines", "3", "-slots", "1"}); err != nil {
		t.Fatal(err)
	}
	b, err := want.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRun(b)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, %v; want %+v", got, err, want)
	}
	for _, bad := range []string{"", "{", `{"Window": "4"}`, `{"Deadline": 3}`} {
		if r, err := decodeRun([]byte(bad)); err == nil {
			t.Errorf("decodeRun(%q) = %+v, want an error", bad, r)
		}
	}
	if _, err := (&run{Popcorn: math.NaN()}).encode(); err == nil {
		t.Error("a NaN popcorn threshold encoded")
	}
}
