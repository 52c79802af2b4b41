package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"strings"

	"proger/internal/experiments"
)

// run is everything that decides a resolution's answer: the workload,
// its families and rules, the pipeline and its settings, the simulated
// cluster. The flags bindRun defines fill it. A
// -master hands it, encoded, to every worker at registration, so a
// worker's driver resolves the master's run and never one of its own.
type run struct {
	Input, Generate, Truth, Mechanism, Scheduler string
	N, Window, Machines, Slots                   int
	Seed                                         int64
	Threshold, Popcorn                           float64
	Blocks, Rules                                stringList
	Basic                                        bool
}

// bindRun defines the resolution flags on fs and returns the run they
// fill.
func bindRun(fs *flag.FlagSet) *run {
	r := &run{}
	fs.StringVar(&r.Input, "input", "", "input dataset TSV (mutually exclusive with -generate)")
	fs.StringVar(&r.Generate, "generate", "", "generate a synthetic workload: "+strings.Join(experiments.Names(), " | "))
	fs.IntVar(&r.N, "n", 10000, "entities to generate")
	fs.Int64Var(&r.Seed, "seed", 1, "generator seed")
	fs.StringVar(&r.Truth, "truth", "", "ground-truth TSV for recall reporting")
	fs.Var(&r.Blocks, "block", "blocking family as attr:len1,len2,... (repeatable, dominance order)")
	fs.Var(&r.Rules, "rule", "match rule as attr:kind:weight[:maxchars], kind ∈ edit|exact|jaro|jaccard|cosine (repeatable)")
	fs.Float64Var(&r.Threshold, "match-threshold", 0.75, "weighted-similarity match threshold of the -rule matcher")
	fs.StringVar(&r.Mechanism, "mechanism", "", "progressive mechanism: sn | psnm (default: the -generate workload's; sn for -input)")
	fs.StringVar(&r.Scheduler, "scheduler", "ours", "tree scheduler: ours | nosplit | lpt (not with -basic)")
	fs.BoolVar(&r.Basic, "basic", false, "run the Basic baseline instead of the full pipeline")
	fs.IntVar(&r.Window, "window", 15, "SN window for -basic")
	fs.Float64Var(&r.Popcorn, "popcorn", -1, "popcorn threshold for -basic (negative = resolve fully)")
	fs.IntVar(&r.Machines, "machines", 10, "simulated machines")
	fs.IntVar(&r.Slots, "slots", 2, "task slots per machine")
	return r
}

// refuseUnread returns an error naming a flag set on fs that r's
// pipeline never reads, or nil.
func (r *run) refuseUnread(fs *flag.FlagSet) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case set["match-threshold"] && !set["rule"]:
		return errors.New("-match-threshold sets the threshold of a -rule matcher; without -rule the workload's matcher keeps its own")
	case set["window"] && !r.Basic:
		return errors.New("-window applies only to -basic")
	case set["popcorn"] && !r.Basic:
		return errors.New("-popcorn applies only to -basic")
	case set["scheduler"] && r.Basic:
		return errors.New("-scheduler does not apply to -basic, which schedules no trees")
	case set["n"] && r.Input != "":
		return errors.New("-n sizes a -generate workload; -input reads its entities from the file")
	case set["seed"] && r.Input != "":
		return errors.New("-seed seeds a -generate workload; -input reads its entities from the file")
	case set["n"] && experiments.FixedSize(r.Generate):
		return fmt.Errorf("-n sizes a -generate workload; %s is a dataset of fixed size", r.Generate)
	case set["seed"] && experiments.FixedSize(r.Generate):
		return fmt.Errorf("-seed seeds a -generate workload; %s is a dataset of fixed size", r.Generate)
	case set["truth"] && r.Input == "":
		return errors.New("-truth is the ground truth of an -input file; a -generate workload brings its own")
	}
	return nil
}

// encode is r as the master hands it to its workers; it fails on a
// number JSON cannot hold (NaN, ±Inf).
func (r *run) encode() ([]byte, error) { return json.Marshal(r) }

// decodeRun decodes a run a master encoded. A field this binary does
// not know is an error, not a setting silently dropped.
func decodeRun(b []byte) (*run, error) {
	if len(b) == 0 {
		return nil, errors.New("the master sent no run")
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	r := &run{}
	if err := dec.Decode(r); err != nil {
		return nil, err
	}
	return r, nil
}
