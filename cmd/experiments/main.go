// Command experiments regenerates every table and figure of the
// paper's evaluation section (§VI) and prints the same rows/series the
// paper reports, in plain aligned text.
//
// Usage:
//
//	experiments <command> [-entities N] [-seed S] [-machines a,b,...] [-points P] [-plot | -json]
//
// A command is an entry of experiments.Catalogue (fig1, fig8, fig9,
// fig10, fig11, ablation), table3 (the table of the fig8 run), or all,
// which prints every entry in catalogue order, each at its own machine
// counts, and so refuses -machines. A flag left at zero takes the
// experiment's default.
//
// All numbers are simulated cost units; the shapes (who wins, by what
// factor, where the crossovers fall) are the reproduction target — see
// EXPERIMENTS.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"proger/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	entities := fs.Int("entities", 0, "dataset size (0 = experiment default)")
	machinesFlag := fs.String("machines", "", "comma-separated machine counts (experiment default if empty)")
	seed := fs.Int64("seed", 0, "generator seed (0 = experiment default)")
	points := fs.Int("points", 0, "curve grid points (0 = default)")
	plot := fs.Bool("plot", false, "render ASCII charts instead of data tables")
	asJSON := fs.Bool("json", false, "emit figures and tables as JSON documents")
	if err := fs.Parse(os.Args[2:]); err != nil {
		log.Fatal(err)
	}
	cfg := experiments.Config{Entities: *entities, Seed: *seed, Machines: parseMachines(*machinesFlag), GridPoints: *points}
	ran, err := run(os.Stdout, cmd, cfg, *plot, *asJSON)
	if errors.Is(err, errAllMachines) {
		log.Print(err)
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
	if !ran {
		usage()
	}
}

// errAllMachines refuses machine counts for all: they mean something
// different to each experiment.
var errAllMachines = errors.New("-machines applies to one command; all runs every experiment at its own machine counts")

// run runs every catalogue entry that cmd prints a part of, in
// catalogue order, and writes those parts to w. It reports whether any
// entry answered to cmd.
func run(w io.Writer, cmd string, cfg experiments.Config, plot, asJSON bool) (bool, error) {
	if cmd == "all" && cfg.Machines != nil {
		return false, errAllMachines
	}
	ran := false
	for _, e := range experiments.Catalogue {
		figures, tables := e.Prints(cmd)
		if !figures && !tables {
			continue
		}
		ran = true
		out, err := e.Run(cfg)
		if err != nil {
			return ran, err
		}
		if !figures {
			out.Figures = nil
		}
		if !tables {
			out.Tables = nil
		}
		if err := out.Write(w, plot, asJSON); err != nil {
			return ran, err
		}
	}
	return ran, nil
}

func usage() {
	var cmds []string
	for _, e := range experiments.Catalogue {
		cmds = append(cmds, e.Name)
		if e.TableName != "" {
			cmds = append(cmds, e.TableName)
		}
	}
	fmt.Fprintf(os.Stderr, "usage: experiments <%s|all> [flags]\n", strings.Join(cmds, "|"))
	os.Exit(2)
}

func parseMachines(s string) []int {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			log.Fatalf("bad -machines value %q", p)
		}
		out = append(out, v)
	}
	return out
}
