package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// results is the file a multi-workload run stores (-out) and -compare
// reads: the host, and per workload the latest numbers with their
// spread.
type results struct {
	Schema    int                        `json:"schema"`
	Host      hostInfo                   `json:"host"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type hostInfo struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	LoadAvg    string  `json:"loadavg_at_start"`
}

type workloadResult struct {
	Entities     int    `json:"entities"`
	OpsAttempted int    `json:"ops_attempted"`
	OpsFailed    int    `json:"ops_failed"`
	Digest       string `json:"digest"`
	// Noisy is set when the timed operations spread further than the
	// bound of resolve_wall_s: the box was busy, and the medians are then
	// not to be trusted.
	Noisy    bool              `json:"noisy"`
	EndToEnd map[string]sample `json:"end_to_end"`
	PerLayer map[string]sample `json:"per_layer"`
}

// spawn runs one workload once and returns its result. The command
// runs it in a fresh child process; the tests run it in-process.
type spawn func(wl *workload, cfg runConfig) (*runResult, error)

// spawnChild re-executes this binary for one workload and reads the
// detail line it prints.
func spawnChild(wl *workload, cfg runConfig) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if cfg.Trace {
		traceArg = "1"
	}
	args := []string{
		"-workload", wl.Name,
		"-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"-trace", traceArg,
		"-workdir", cfg.WorkDir,
	}
	if cfg.Quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			var res runResult
			if err := json.Unmarshal([]byte(rest), &res); err != nil {
				return nil, fmt.Errorf("%s: reading the child's result: %w", wl.Name, err)
			}
			// A child that ran but counted failed operations exits
			// non-zero and still reports; the ledger carries the failure.
			return &res, nil
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: child: %w", wl.Name, runErr)
	}
	return nil, fmt.Errorf("%s: child printed no result", wl.Name)
}

// runSuite runs every selected workload twice — the timed pass, then
// the traced pass — one after another, checks what only a view of all
// of them can check, and prints the table. The results come back even
// when a check failed, so that they can still be stored and read.
func runSuite(w io.Writer, selected []*workload, cfg runConfig, run spawn) (*results, error) {
	res := &results{Schema: 1, Host: host(cfg), Workloads: map[string]*workloadResult{}}
	var problems []string
	for _, wl := range selected {
		wr := &workloadResult{}
		res.Workloads[wl.Name] = wr
		for _, traced := range []bool{false, true} {
			c := cfg
			c.Trace = traced
			fmt.Fprintf(os.Stderr, "bench: %s, trace %v\n", wl.Name, traced)
			r, err := run(wl, c)
			if err != nil {
				return nil, err
			}
			wr.Entities = r.Entities
			wr.OpsAttempted += r.Attempted
			wr.OpsFailed += r.Failed
			for _, f := range r.Failures {
				problems = append(problems, wl.Name+": "+f)
			}
			if wr.Digest != "" && r.Digest != wr.Digest {
				wr.OpsFailed++
				problems = append(problems, wl.Name+": the traced pass produced another digest than the timed pass")
			}
			wr.Digest = r.Digest
			if traced {
				wr.PerLayer = r.Metrics
			} else {
				wr.EndToEnd = r.Metrics
			}
		}
		if t, ok := wr.EndToEnd[mResolveWall]; ok && t.Value > 0 && (t.Max-t.Min)/t.Value > boundOf(mResolveWall) {
			wr.Noisy = true
			fmt.Fprintf(os.Stderr, "bench: warning: %s: timed operations spread %.1f%% (%.3f-%.3f s), more than the bound of %s; the box is noisy\n",
				wl.Name, 100*(t.Max-t.Min)/t.Value, t.Min, t.Max, mResolveWall)
		}
	}
	problems = append(problems, crossCheck(res)...)
	printResults(w, res)
	if len(problems) > 0 {
		return res, errors.New(strings.Join(problems, "\n"))
	}
	return res, nil
}

func writeResults(path string, res *results) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// crossCheck holds the results against each other: the persons-*
// workloads resolve one dataset four ways and must agree on every byte
// of the answer, and only the workload that exercises a layer may
// report that layer's work.
func crossCheck(res *results) []string {
	var problems []string
	var personsDigest, personsName string
	for _, wl := range workloads {
		wr := res.Workloads[wl.Name]
		if wr == nil {
			continue
		}
		if strings.HasPrefix(wl.Name, "persons-") {
			if personsDigest == "" {
				personsDigest, personsName = wr.Digest, wl.Name
			} else if wr.Digest != personsDigest {
				wr.OpsFailed++
				problems = append(problems, fmt.Sprintf("%s and %s resolved the same dataset to different digests", personsName, wl.Name))
			}
		}
		want := func(name string, positive bool) {
			v := wr.PerLayer[name].Value
			if positive && v <= 0 {
				problems = append(problems, fmt.Sprintf("%s: %s is %v, want > 0", wl.Name, name, v))
			} else if !positive && v != 0 {
				problems = append(problems, fmt.Sprintf("%s: %s is %v, want 0", wl.Name, name, v))
			}
		}
		want(lForcedSpills, wl.Variant == spill)
		want(lLeasesGranted, wl.Variant == dist2)
		want(lLeasesExpired, false)
	}
	return problems
}

func boundOf(name string) float64 {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	return 0
}

func host(cfg runConfig) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: "unknown", Seed: cfg.Seed, Seconds: cfg.Seconds, Quick: cfg.Quick,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(b))
	}
	// A checkout the driver makes is not a git repository; the commit
	// is then unknown, which is not an error.
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// ---- printing ----

func sortedNames(m map[string]sample) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printMetrics(tw *tabwriter.Writer, m map[string]sample) {
	for _, name := range sortedNames(m) {
		s := m[name]
		if s.N > 1 {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\tmedian %.6g\tmin %.6g\tmax %.6g\tn=%d\n", name, s.Value, s.Unit, s.Median, s.Min, s.Max, s.N)
		} else {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\t\t\t\n", name, s.Value, s.Unit)
		}
	}
}

func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "%s: %d entities, %d operations, %d failed, digest %.12s\n", r.Workload, r.Entities, r.Attempted, r.Failed, r.Digest)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	printMetrics(tw, r.Metrics)
	tw.Flush()
}

func printResults(w io.Writer, res *results) {
	for _, wl := range workloads {
		wr := res.Workloads[wl.Name]
		if wr == nil {
			continue
		}
		noisy := ""
		if wr.Noisy {
			noisy = ", NOISY"
		}
		fmt.Fprintf(w, "\n%s: %d entities, %d operations, %d failed, digest %.12s%s\n", wl.Name, wr.Entities, wr.OpsAttempted, wr.OpsFailed, wr.Digest, noisy)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		printMetrics(tw, wr.EndToEnd)
		printMetrics(tw, wr.PerLayer)
		tw.Flush()
	}
}

// ---- compare ----

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != 1 {
		return nil, fmt.Errorf("%s: results schema %d, this bench reads 1", path, r.Schema)
	}
	return &r, nil
}

// verdict labels one workload x end-to-end metric row, by the rule of
// the choosing-metrics guide: a median worse by more than the bound is
// a regression; where either side's own spread is wider than the bound
// the row is unresolved, not unchanged — unless every sample of the new
// side reads better than every sample of the old.
func verdict(d metricDef, was, now sample) (label string, delta float64) {
	worse := func(a, b float64) float64 { // how much worse b is than a, as a share of a
		if d.Better == higher {
			return (a - b) / a
		}
		return (b - a) / a
	}
	delta = worse(was.Value, now.Value)
	switch {
	case delta > d.Bound:
		return "regressed", delta
	case d.Better == lower && now.Max < was.Min, d.Better == higher && now.Min > was.Max:
		return "ok", delta
	case (was.Max-was.Min)/was.Value > d.Bound, (now.Max-now.Min)/now.Value > d.Bound:
		return "unresolved", delta
	}
	return "ok", delta
}

// compareFiles prints one row per workload x end-to-end metric and
// fails on any regression or on a higher share of failed operations.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	before, err := readResults(oldPath)
	if err != nil {
		return err
	}
	after, err := readResults(newPath)
	if err != nil {
		return err
	}
	var bad []string
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tworse by\tbound\t")
	for _, wl := range workloads {
		o, n := before.Workloads[wl.Name], after.Workloads[wl.Name]
		if o == nil || n == nil {
			continue
		}
		for _, d := range endToEnd {
			was, ok1 := o.EndToEnd[d.Name]
			now, ok2 := n.EndToEnd[d.Name]
			if !ok1 || !ok2 || was.Value == 0 {
				continue
			}
			label, delta := verdict(d, was, now)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", wl.Name, d.Name, was.Value, now.Value, 100*delta, 100*d.Bound, label)
			if label == "regressed" {
				bad = append(bad, fmt.Sprintf("%s %s regressed by %.1f%%", wl.Name, d.Name, 100*delta))
			}
		}
		if ratio(float64(n.OpsFailed), float64(n.OpsAttempted)) > ratio(float64(o.OpsFailed), float64(o.OpsAttempted)) {
			bad = append(bad, fmt.Sprintf("%s: %d of %d operations failed, was %d of %d", wl.Name, n.OpsFailed, n.OpsAttempted, o.OpsFailed, o.OpsAttempted))
		}
		if o.Digest != n.Digest && before.Host.Seed == after.Host.Seed && o.Entities == n.Entities {
			fmt.Fprintf(tw, "%s\tdigest\t%.12s\t%.12s\t\t\tchanged\n", wl.Name, o.Digest, n.Digest)
		}
	}
	tw.Flush()
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "\n"))
	}
	return nil
}
