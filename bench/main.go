// Command bench is the repository's wall-clock benchmark: six Resolve
// workloads, seven end-to-end metrics and a per-layer table, described
// in bench/README.md and declared in BENCHMARK.json.
//
//	bash bench/run.sh --workload pubs-local --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -out results.json        # every workload, both passes
//	bash bench/run.sh -compare OLD.json NEW.json
//
// Given one workload it measures it in this process and ends its
// standard output with one JSON object; given several (or none, meaning
// all) it runs each in a fresh child process, so that peak RSS and GC
// state belong to one workload, and prints and stores the whole table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	var (
		workloadFlag  = flag.String("workload", "", "comma-separated workload names; empty means all six")
		out           = flag.String("out", "", "with several workloads: write the results file here")
		trace         = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		compare       = flag.Bool("compare", false, "compare two results files: -compare OLD.json NEW.json")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		cfg           runConfig
	)
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the dataset generators and the kernel samples")
	flag.Float64Var(&cfg.Seconds, "seconds", runSeconds, "how long one run measures")
	flag.BoolVar(&cfg.Quick, "quick", false, "sizes / 20, one timed operation, no kernel pass")
	flag.StringVar(&cfg.WorkDir, "workdir", ".bench_build/work", "directory for spill, run-file and temporary files")
	flag.Parse()
	var err error
	switch {
	case *printManifest:
		err = writeManifest(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two results files, got %d", flag.NArg())
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace is 0 or 1, got %d", *trace)
	default:
		cfg.Trace = *trace == 1
		err = measure(*workloadFlag, cfg, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func writeManifest(w io.Writer) error {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// measure runs the named workloads: one in this process, several each
// in a child of its own.
func measure(names string, cfg runConfig, out string) error {
	var selected []*workload
	if names == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else {
		for _, name := range strings.Split(names, ",") {
			wl, err := findWorkload(name)
			if err != nil {
				return err
			}
			selected = append(selected, wl)
		}
	}
	var err error
	if cfg.WorkDir, err = prepareWorkDir(cfg.WorkDir); err != nil {
		return err
	}
	if len(selected) == 1 {
		return runOne(selected[0], cfg)
	}
	res, err := runSuite(os.Stdout, selected, cfg, spawnChild)
	if res != nil && out != "" {
		if werr := writeResults(out, res); werr != nil {
			return werr
		}
	}
	return err
}

// resultLine is the last line of a single-workload run, the shape the
// pipeline's driver reads.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailPrefix marks the line that carries the full runResult (spread,
// sample counts, digest) for a parent bench process.
const detailPrefix = "#detail "

// runOne measures one workload in this process. It prints the readable
// table, the detail line, and last the result line.
func runOne(wl *workload, cfg runConfig) error {
	res, err := runWorkload(wl, cfg)
	if err != nil {
		return err
	}
	printRun(os.Stdout, res)
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", detailPrefix, detail)
	line := resultLine{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]lineMetric{},
	}
	for name, s := range res.Metrics {
		line.Metrics[name] = lineMetric{s.Value, s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed: %s", wl.Name, res.Failed, res.Attempted, strings.Join(res.Failures, "; "))
	}
	return nil
}
