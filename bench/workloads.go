package main

import (
	"fmt"

	"proger"
	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/experiments"
)

// variant is how a workload departs from a plain in-process, in-memory,
// pipelined Resolve.
type variant int

const (
	plain variant = iota
	spill
	dist2
	barrier
)

// workload is one named set of inputs. The names are permanent: later
// issues quote them when they predict which numbers move.
type workload struct {
	Name string
	Why  string
	// Entities is the dataset size. The issue sized one operation at
	// 3.5-6 s (15 000 / 30 000 / 150 000); every dataset is a third of
	// that, so that a run of runSeconds holds some twenty operations:
	// a timing is the fastest of several repeats (run.go, timedRun).
	Entities int
	generate func(n int, seed int64) *inputs
	Variant  variant
	// Driver puts the workload into BENCHMARK.json, the list the
	// pipeline's driver runs. Its time limit covers 22 runs of every
	// listed workload; three leave each run long enough to outlast the
	// slow spells of a shared host, and the three listed have the
	// shortest operations, so a run holds the most repeats
	// (bench/README.md, "Noise"). The others run in the full suite only.
	Driver bool
}

// spillBudget is the memory budget of persons-spill.
const spillBudget = 1 << 20

var workloads = []workload{
	{
		Name:     "pubs-local",
		Why:      "compare-bound on long strings: edit distance over titles and 350-char abstracts does most of the work, so kernel and filter changes show here",
		Entities: 5000, generate: publications, Driver: true,
	},
	{
		Name:     "books-local",
		Why:      "the same match and mechanism layers on short strings, exact rules and PSNM: a kernel tuned for long strings shows here as a loss",
		Entities: 10000, generate: books, Driver: true,
	},
	{
		Name:     "persons-exact",
		Why:      "exact-match rules make textsim idle, so shuffle, codec, blocking and window enumeration do the work: the bypass workload for kernel changes",
		Entities: 50000, generate: persons, Driver: true,
	},
	{
		Name:     "persons-spill",
		Why:      "persons-exact under a 1 MiB memory budget: the only place extsort, membudget and the block compressor run",
		Entities: 50000, generate: persons, Variant: spill,
	},
	{
		Name:     "persons-dist2",
		Why:      "persons-exact through a master and two workers over loopback TCP: the only place RPC, leasing, run files and lockstep replay run",
		Entities: 50000, generate: persons, Variant: dist2,
	},
	{
		Name:     "persons-barrier",
		Why:      "persons-exact on the barrier engine: the pipelined-vs-barrier row a single-engine refactor must keep flat",
		Entities: 50000, generate: persons, Variant: barrier,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything one workload hands to the library: the seed
// reaches the generators only, never Resolve.
type inputs struct {
	ds   *entity.Dataset
	gt   *datagen.GroundTruth
	opts proger.Options
	// digest is set by the first checked operation on this dataset; every
	// later one must reproduce it.
	digest string
}

// clusterShape is the simulated cluster of every workload: 10 machines
// with 2 slots each, the paper's largest configuration.
func clusterShape(o proger.Options) proger.Options {
	o.Machines, o.SlotsPerMachine = 10, 2
	return o
}

func fromExperiment(w *experiments.Workload) *inputs {
	return &inputs{ds: w.DS, gt: w.GT, opts: clusterShape(proger.Options{
		Families:  w.Fams,
		Matcher:   w.Matcher,
		Mechanism: w.Mech,
		Policy:    w.Policy,
		DupModel:  w.Model,
	})}
}

func publications(n int, seed int64) *inputs {
	return fromExperiment(experiments.PublicationsWorkload(n, seed))
}

func books(n int, seed int64) *inputs {
	return fromExperiment(experiments.BooksWorkload(n, seed))
}

// persons is the examples/people configuration with an exact matcher:
// Soundex + city + state blocking, phone and state compared exactly.
func persons(n int, seed int64) *inputs {
	ds, gt := proger.GeneratePersons(n, seed)
	idx := ds.Schema.Index
	return &inputs{ds: ds, gt: gt, opts: clusterShape(proger.Options{
		Families: proger.Families{
			{Name: "S", Attr: idx("name"), PrefixLens: []int{1, 2, 4}, Index: 1, Kind: proger.KeySoundex},
			{Name: "C", Attr: idx("city"), PrefixLens: []int{3, 5}, Index: 2},
			{Name: "T", Attr: idx("state"), PrefixLens: []int{2}, Index: 3},
		},
		Matcher: proger.MustMatcher(0.6,
			proger.Rule{Attr: idx("phone"), Weight: 0.6, Kind: proger.ExactMatch},
			proger.Rule{Attr: idx("state"), Weight: 0.4, Kind: proger.ExactMatch},
		),
		Mechanism: proger.SN,
		Policy:    proger.CiteSeerXPolicy(),
	})}
}
