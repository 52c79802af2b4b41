package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"proger"
)

func testDataset() *proger.Dataset {
	ds := proger.NewDataset(proger.MustSchema("name", "state"))
	ds.Append("John Lopez", "HI")
	ds.Append("Mary Gibson", "AZ")
	return ds
}

func TestBuildFamiliesCustom(t *testing.T) {
	ds := testDataset()
	fams := buildFamilies(ds, stringList{"name:2,3,5", "state:2"}, "")
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
	pubs, _ := proger.GeneratePublications(50, 1)
	fams := buildFamilies(pubs, nil, "publications")
	if len(fams) != 3 || fams[0].PrefixLens[0] != 2 {
		t.Errorf("publications preset = %+v", fams)
	}
	books, _ := proger.GenerateBooks(50, 1)
	fams = buildFamilies(books, nil, "books")
	if len(fams) != 3 || fams[0].PrefixLens[0] != 3 {
		t.Errorf("books preset = %+v", fams)
	}
}

func TestBuildMatcherCustom(t *testing.T) {
	ds := testDataset()
	m := buildMatcher(ds, stringList{"name:edit:0.8", "state:exact:0.2"}, 0.7, "")
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
	m := buildMatcher(pubs, stringList{"abstract:edit:1:350"}, 0.8, "")
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
	if pickPolicy("books").FracLeaf != 0.85 {
		t.Error("books policy not picked")
	}
	if pickPolicy("publications").FracLeaf != 0.80 {
		t.Error("default policy not picked")
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

func TestTrainSet(t *testing.T) {
	ds, gt := trainSet("publications", 4000, 1)
	if ds == nil || gt == nil || ds.Len() < 500 {
		t.Error("publications train set missing")
	}
	if ds, _ := trainSet("people", 4000, 1); ds != nil {
		t.Error("people has no train set")
	}
}

func TestBuildFamiliesSoundex(t *testing.T) {
	ds := testDataset()
	fams := buildFamilies(ds, stringList{"name:soundex:1,2,4", "state:2"}, "")
	if fams[0].Kind != proger.KeySoundex {
		t.Errorf("kind = %v, want soundex", fams[0].Kind)
	}
	if len(fams[0].PrefixLens) != 3 || fams[0].PrefixLens[2] != 4 {
		t.Errorf("lens = %v", fams[0].PrefixLens)
	}
	if fams[1].Kind != proger.KeyPrefix {
		t.Errorf("default kind = %v, want prefix", fams[1].Kind)
	}
	explicit := buildFamilies(ds, stringList{"name:prefix:2,3"}, "")
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
