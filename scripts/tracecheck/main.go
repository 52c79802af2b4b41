// Command tracecheck validates a Chrome trace-event JSON file produced
// by -trace: the file must parse, every event must carry a valid phase
// and non-negative timestamps, and the trace must contain spans for
// each pipeline stage (map, reduce, shuffle, schedule, resolve). With
// -quality it additionally validates a quality-telemetry JSON export
// (from -quality-out): sample costs strictly increasing, recall
// non-decreasing within [0, 1], and AUC in [0, 1]. With -events it
// validates a structured JSON event log (from cmd/proger -events):
// one JSON object per line with a non-empty "event" name, segregated
// wall-clock fields only (no slog "time"/"level" keys), run.start
// first / run.end last, every task.start, task.done and task.failed
// in one of the engine's two task phases (map, reduce), and
// per-(proc, job, phase) task accounting (done + failed never exceeds
// starts). The log may merge events from
// several processes: each line carries an optional "proc" identity key
// ("w<id>" for a forked worker, absent for the host process), "seq" is
// gap-free and strictly increasing per process, the run envelope
// (run.start/run.end) belongs to the host, a worker proc may only
// appear after the host logged its worker.register, and job accounting
// is strict for the host but relaxed for workers (a killed worker ends
// fewer jobs than it starts). Distributed-transport events
// (worker.register, lease, lease.expire) must carry their identity
// keys, a lease's phase is likewise map or reduce, leases imply a registered worker, and expiries never exceed grants —
// globally and per worker. Used by `make trace-demo` and
// scripts/check.sh as a CI-grade sanity check.
//
// Usage: tracecheck [-quality QUALITY_FILE] [-events EVENTS_FILE] [TRACE_FILE [required-cat ...]]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func main() {
	qualityPath := flag.String("quality", "", "quality-telemetry JSON export to validate")
	eventsPath := flag.String("events", "", "structured JSON event log to validate")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 && *qualityPath == "" && *eventsPath == "" {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-quality QUALITY_FILE] [-events EVENTS_FILE] [TRACE_FILE [required-cat ...]]")
		os.Exit(2)
	}
	if len(args) > 0 {
		required := []string{"map", "reduce", "shuffle", "schedule", "resolve"}
		if len(args) > 1 {
			required = args[1:]
		}
		if err := check(args[0], required); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
			os.Exit(1)
		}
	}
	if *qualityPath != "" {
		if err := checkQuality(*qualityPath); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
			os.Exit(1)
		}
	}
	if *eventsPath != "" {
		if err := checkEvents(*eventsPath); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
			os.Exit(1)
		}
	}
}

// procRE matches the identity key of a forked worker's forwarded
// events; the host's own events carry no "proc" field at all.
var procRE = regexp.MustCompile(`^w([0-9]+)$`)

// checkEvents validates a structured JSON-lines event log, possibly
// merged from several processes (see the package comment for the
// multi-process grammar).
func checkEvents(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	type phaseKey struct{ proc, job, phase string }
	type jobKey struct{ proc, name string }
	starts := map[phaseKey]int{}
	dones := map[phaseKey]int{}
	jobStarts := map[jobKey]int{}
	jobEnds := map[jobKey]int{}
	names := map[string]int{}
	seqs := map[string]int{}     // per-proc last seq
	registered := map[int]bool{} // worker IDs seen in worker.register
	grants := map[int]int{}      // per-worker lease grants
	expiries := map[int]int{}    // per-worker lease expiries
	var first, last, lastProc string
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("%s: line %d: invalid JSON: %w", path, lines, err)
		}
		name, _ := ev["event"].(string)
		if name == "" {
			return fmt.Errorf("%s: line %d: missing event name", path, lines)
		}
		// Wall-clock data must stay in the segregated seq/wall_ms
		// fields; slog's default keys would leak nondeterminism into
		// the deterministic subset.
		for _, banned := range []string{"time", "level", "msg"} {
			if _, ok := ev[banned]; ok {
				return fmt.Errorf("%s: line %d (%s): leaked slog field %q", path, lines, name, banned)
			}
		}
		proc := ""
		if p, ok := ev["proc"]; ok {
			proc, _ = p.(string)
			m := procRE.FindStringSubmatch(proc)
			if m == nil {
				return fmt.Errorf("%s: line %d (%s): bad proc %v", path, lines, name, ev["proc"])
			}
			id, _ := strconv.Atoi(m[1])
			if !registered[id] {
				return fmt.Errorf("%s: line %d (%s): proc %q before worker.register", path, lines, name, proc)
			}
		}
		seq, ok := ev["seq"].(float64)
		if !ok || int(seq) != seqs[proc]+1 {
			return fmt.Errorf("%s: line %d (%s, proc %q): seq %v, want %d", path, lines, name, proc, ev["seq"], seqs[proc]+1)
		}
		seqs[proc] = int(seq)
		if ms, ok := ev["wall_ms"].(float64); !ok || ms < 0 {
			return fmt.Errorf("%s: line %d (%s): bad wall_ms %v", path, lines, name, ev["wall_ms"])
		}
		if first == "" {
			first, lastProc = name, proc
			if proc != "" {
				return fmt.Errorf("%s: line %d: first event from proc %q, want host run.start", path, lines, proc)
			}
		}
		last, lastProc = name, proc
		names[name]++
		job, _ := ev["job"].(string)
		phase, _ := ev["phase"].(string)
		switch name {
		case live.EventJobStart:
			jobStarts[jobKey{proc, job}]++
		case live.EventJobEnd:
			jobEnds[jobKey{proc, job}]++
		case live.EventTaskStart, live.EventTaskDone, live.EventTaskFailed:
			if err := checkTaskPhase(phase); err != nil {
				return fmt.Errorf("%s: line %d (%s): %w", path, lines, name, err)
			}
			if name == live.EventTaskStart {
				starts[phaseKey{proc, job, phase}]++
			} else {
				dones[phaseKey{proc, job, phase}]++
			}
		case live.EventWorkerRegister:
			id, ok := ev["worker"].(float64)
			if !ok {
				return fmt.Errorf("%s: line %d (%s): missing worker id", path, lines, name)
			}
			if proc != "" {
				return fmt.Errorf("%s: line %d (%s): registration must come from the host, got proc %q", path, lines, name, proc)
			}
			registered[int(id)] = true
		case live.EventLease, live.EventLeaseExpire:
			for _, key := range []string{"worker", "lease", "task"} {
				if _, ok := ev[key].(float64); !ok {
					return fmt.Errorf("%s: line %d (%s): missing %q", path, lines, name, key)
				}
			}
			if err := checkTaskPhase(phase); err != nil {
				return fmt.Errorf("%s: line %d (%s): %w", path, lines, name, err)
			}
			id := int(ev["worker"].(float64))
			if name == live.EventLease {
				grants[id]++
			} else {
				expiries[id]++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines == 0 {
		return fmt.Errorf("%s: empty event log", path)
	}
	if first != live.EventRunStart {
		return fmt.Errorf("%s: first event %q, want run.start", path, first)
	}
	if last != live.EventRunEnd || lastProc != "" {
		return fmt.Errorf("%s: last event %q (proc %q), want host run.end", path, last, lastProc)
	}
	if names[live.EventJobStart] == 0 {
		return fmt.Errorf("%s: no job.start events", path)
	}
	// Job accounting is strict for the host; a worker killed mid-run
	// legitimately forwards fewer job.end events than job.start ones.
	for k, n := range jobStarts {
		e := jobEnds[k]
		if k.proc == "" && e != n {
			return fmt.Errorf("%s: job %q: %d job.start vs %d job.end", path, k.name, n, e)
		}
		if e > n {
			return fmt.Errorf("%s: proc %q job %q: %d job.end exceed %d job.start", path, k.proc, k.name, e, n)
		}
	}
	for k, e := range jobEnds {
		if jobStarts[k] == 0 {
			return fmt.Errorf("%s: proc %q job %q: %d job.end without job.start", path, k.proc, k.name, e)
		}
	}
	for k, n := range dones {
		if s := starts[k]; n > s {
			return fmt.Errorf("%s: proc %q %s/%s: %d task completions exceed %d starts", path, k.proc, k.job, k.phase, n, s)
		}
	}
	// Distributed-transport events: a lease cannot exist without a
	// registered worker, and expiries are a subset of grants — per
	// worker and therefore globally.
	if names[live.EventLease] > 0 && names[live.EventWorkerRegister] == 0 {
		return fmt.Errorf("%s: %d leases but no worker.register", path, names[live.EventLease])
	}
	for id, g := range grants {
		if !registered[id] {
			return fmt.Errorf("%s: worker %d: %d leases without worker.register", path, id, g)
		}
	}
	for id, e := range expiries {
		if g := grants[id]; e > g {
			return fmt.Errorf("%s: worker %d: %d lease expiries exceed %d grants", path, id, e, g)
		}
	}
	fmt.Printf("tracecheck: %s ok — %d events (%d task starts), %d jobs, %d procs, kinds %v\n",
		path, lines, names[live.EventTaskStart], names[live.EventJobStart], len(seqs), catNames(names))
	return nil
}

// checkTaskPhase accepts the phases a task or a lease can have: map and
// reduce, the engine's two task kinds.
func checkTaskPhase(phase string) error {
	if p := live.Phase(phase); p != live.PhaseMap && p != live.PhaseReduce {
		return fmt.Errorf("phase %q is not a task kind (%s or %s)", phase, live.PhaseMap, live.PhaseReduce)
	}
	return nil
}

// checkQuality validates the invariants every quality export must hold:
// strictly increasing sample costs, recall non-decreasing within
// [0, 1] and ending at 1 when any duplicate was found, AUC in [0, 1].
func checkQuality(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var qf quality.Export
	if err := json.Unmarshal(data, &qf); err != nil {
		return fmt.Errorf("%s: invalid quality JSON: %w", path, err)
	}
	if qf.Curve == nil || qf.Calibration == nil {
		return fmt.Errorf("%s: missing curve or calibration", path)
	}
	c := qf.Curve
	if c.AUC < 0 || c.AUC > 1 {
		return fmt.Errorf("%s: AUC %g outside [0, 1]", path, c.AUC)
	}
	prevCost := -1.0
	prevRecall := 0.0
	for i, p := range c.Points {
		if p.Cost <= prevCost {
			return fmt.Errorf("%s: point %d cost %g not strictly increasing (previous %g)", path, i, p.Cost, prevCost)
		}
		if p.Recall < prevRecall || p.Recall < 0 || p.Recall > 1 {
			return fmt.Errorf("%s: point %d recall %g not non-decreasing in [0, 1] (previous %g)", path, i, p.Recall, prevRecall)
		}
		prevCost, prevRecall = p.Cost, p.Recall
	}
	if n := len(c.Points); n > 0 {
		if last := c.Points[n-1]; last.Cost != c.End {
			return fmt.Errorf("%s: last sample at %g, want end %g", path, last.Cost, c.End)
		} else if c.FinalDups > 0 && last.Recall != 1 {
			return fmt.Errorf("%s: final recall %g, want 1", path, last.Recall)
		}
	}
	fmt.Printf("tracecheck: %s ok — %d samples over [0, %g], AUC %.3f, %d calibration rows, %d task rows\n",
		path, len(c.Points), c.End, c.AUC, len(qf.Calibration.Blocks), len(qf.Calibration.Tasks))
	return nil
}

func check(path string, required []string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tf); err != nil {
		return fmt.Errorf("%s: invalid trace JSON: %w", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("%s: no traceEvents", path)
	}

	cats := map[string]int{}
	procs := map[int]string{}
	spans := 0
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" {
				return fmt.Errorf("event %d: unexpected metadata %q", i, ev.Name)
			}
			name, _ := ev.Args["name"].(string)
			if name == "" {
				return fmt.Errorf("event %d: process_name without args.name", i)
			}
			procs[ev.PID] = name
		case "X":
			if ev.Name == "" {
				return fmt.Errorf("event %d: span without a name", i)
			}
			if ev.Cat == "" {
				return fmt.Errorf("event %d (%q): span without a category", i, ev.Name)
			}
			if ev.TS < 0 || ev.Dur < 0 {
				return fmt.Errorf("event %d (%q): negative ts/dur (%g, %g)", i, ev.Name, ev.TS, ev.Dur)
			}
			if _, ok := procs[ev.PID]; !ok {
				return fmt.Errorf("event %d (%q): pid %d has no process_name metadata", i, ev.Name, ev.PID)
			}
			cats[ev.Cat]++
			spans++
		default:
			return fmt.Errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}

	var missing []string
	for _, cat := range required {
		if cats[cat] == 0 {
			missing = append(missing, cat)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: missing span categories %v (have %v)", path, missing, catNames(cats))
	}
	fmt.Printf("tracecheck: %s ok — %d spans, %d processes, categories %v\n",
		path, spans, len(procs), catNames(cats))
	return nil
}

func catNames(cats map[string]int) []string {
	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, fmt.Sprintf("%s:%d", c, cats[c]))
	}
	sort.Strings(names)
	return names
}
