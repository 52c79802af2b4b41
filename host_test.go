package proger_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"testing"

	"proger"
)

// hostDraws is how many seeded Host draws TestHostNeverChangesTheAnswer
// runs; each is one resolution of a small catalogue workload.
const hostDraws = 24

// hostRun is what a resolution hands back that the Host must not move:
// the Result, and the Chrome trace and quality JSON when their sinks
// are on (nil otherwise).
type hostRun struct {
	res         *proger.Result
	trace, qual []byte
}

// hostCase is one workload resolved as Ours or as Basic F.
type hostCase struct {
	name  string
	n     int
	basic bool
}

func (c hostCase) String() string {
	if c.basic {
		return c.name + "/Basic F"
	}
	return c.name + "/Ours"
}

// resolveUnder resolves c's workload with h as its Host, on 4 machines
// of two slots each.
func resolveUnder(t *testing.T, c hostCase, h proger.Host) hostRun {
	t.Helper()
	ds, _, opts := workload(t, c.name, c.n, 3)
	opts.Machines = 4
	opts.Host = h
	var res *proger.Result
	var err error
	if c.basic {
		res, err = proger.ResolveBasic(ds, proger.BasicOptions{
			Families:         opts.Families,
			Matcher:          opts.Matcher,
			Mechanism:        opts.Mechanism,
			Window:           15,
			PopcornThreshold: -1,
			Machines:         opts.Machines,
			SlotsPerMachine:  opts.SlotsPerMachine,
			Host:             h,
		})
	} else {
		res, err = proger.Resolve(ds, opts)
	}
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	out := hostRun{res: res}
	if h.Trace != nil {
		var b bytes.Buffer
		if err := h.Trace.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		out.trace = b.Bytes()
	}
	if h.Quality != nil {
		var b bytes.Buffer
		if err := h.Quality.Export(0).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		out.qual = b.Bytes()
	}
	return out
}

// TestHostNeverChangesTheAnswer draws Hosts from a seeded generator —
// Workers 1–8, a memory budget of none, 64 KiB or 1 MiB, and each of
// the trace, metrics, quality and live sinks on or off — and a small
// catalogue workload resolved as Ours or Basic F, and checks that the
// Result, the Chrome trace JSON and the quality JSON equal those of the
// all-default Host (the trace and quality JSON of a default Host with
// only that sink attached). No Host field may change a byte of the
// answer.
func TestHostNeverChangesTheAnswer(t *testing.T) {
	cases := []hostCase{
		{name: "publications", n: 800}, {name: "publications", n: 800, basic: true},
		{name: "books", n: 1000}, {name: "books", n: 1000, basic: true},
		{name: "persons-exact", n: 3000}, {name: "persons-exact", n: 3000, basic: true},
	}
	type reference struct{ res, trace, qual hostRun }
	refs := map[hostCase]*reference{}
	ref := func(t *testing.T, c hostCase) *reference {
		if r := refs[c]; r != nil {
			return r
		}
		r := &reference{
			res:   resolveUnder(t, c, proger.Host{}),
			trace: resolveUnder(t, c, proger.Host{Trace: proger.NewTracer()}),
			qual:  resolveUnder(t, c, proger.Host{Quality: proger.NewQualityRecorder()}),
		}
		if len(r.res.res.Events) == 0 {
			t.Fatalf("%v: the default Host found no duplicates; the draw compares nothing", c)
		}
		refs[c] = r
		return r
	}

	rng := rand.New(rand.NewPCG(52, 1))
	budgets := []int64{0, 64 << 10, 1 << 20}
	for draw := range hostDraws {
		c := cases[rng.IntN(len(cases))]
		h := proger.Host{Workers: 1 + rng.IntN(8), MemBudget: budgets[rng.IntN(len(budgets))]}
		if h.MemBudget > 0 {
			h.SpillDir = t.TempDir()
		}
		if rng.IntN(2) == 1 {
			h.Trace = proger.NewTracer()
		}
		if rng.IntN(2) == 1 {
			h.Metrics = proger.NewMetricsRegistry()
		}
		if rng.IntN(2) == 1 {
			h.Quality = proger.NewQualityRecorder()
		}
		if rng.IntN(2) == 1 {
			h.Live = proger.NewLiveRun(proger.NewLiveEventLog(io.Discard))
		}
		name := fmt.Sprintf("%d/%v/workers=%d/budget=%d/trace=%t/metrics=%t/quality=%t/live=%t",
			draw, c, h.Workers, h.MemBudget, h.Trace != nil, h.Metrics != nil, h.Quality != nil, h.Live != nil)
		t.Run(name, func(t *testing.T) {
			want := ref(t, c)
			got := resolveUnder(t, c, h)
			if !reflect.DeepEqual(got.res, want.res.res) {
				t.Errorf("Result differs from the default Host's: %d events, total %v; want %d events, total %v",
					len(got.res.Events), got.res.TotalTime, len(want.res.res.Events), want.res.res.TotalTime)
			}
			if got.trace != nil && !bytes.Equal(got.trace, want.trace.trace) {
				t.Error("Chrome trace JSON differs from the default Host's")
			}
			if got.qual != nil && !bytes.Equal(got.qual, want.qual.qual) {
				t.Error("quality JSON differs from the default Host's")
			}
		})
	}
}
