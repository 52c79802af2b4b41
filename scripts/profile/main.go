// Command profile runs Resolve on a benchmark driver workload's inputs (the internal/experiments catalogue's workloads that
// bench/workloads.go runs as pubs-local, books-local and persons-exact), writes cpu.pprof and allocs.pprof and prints, per operation, wall and CPU
// milliseconds and the collector's share of that CPU, MiB allocated (and bytes per input entity), mallocs and cycles,
// plus GCCPUFraction and VmHWM.
package main

import (
	"flag"
	"log"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"proger"
	"proger/internal/experiments"
)

func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// vmHWM returns the process's peak resident set as /proc/self/status
// reports it ("VmHWM:   123456 kB"), or "n/a" where there is no procfs.
func vmHWM() string {
	status, _ := os.ReadFile("/proc/self/status") // (no file, no line: "n/a")
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "n/a"
}

// cpuSeconds reads the runtime's own CPU accounting (runtime/metrics,
// an estimate as of the last collection): the CPU time the process's Go
// code and runtime have used, and the collector's part of it.
func cpuSeconds() (used, gc float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/idle:cpu-seconds"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64() - s[1].Value.Float64(), s[2].Value.Float64()
}

// profiled names each workload by its benchmark shorthand: its catalogue name and size.
var profiled = map[string]struct {
	name string
	n    int
}{"persons": {"persons-exact", 50000}, "books": {"books", 10000}, "pubs": {"publications", 5000}}

func main() {
	workload := flag.String("workload", "persons", "persons, books or pubs")
	n := flag.Int("n", 15, "Resolve operations to run")
	flag.Parse()
	p, ok := profiled[*workload]
	if !ok {
		log.Fatalf("profile: unknown workload %q (want persons, books or pubs)", *workload)
	}
	w := must(experiments.Generate(p.name, p.n, 1))
	w.Train(p.n, 1)
	o := proger.Options{Families: w.Fams, Matcher: w.Matcher, Mechanism: w.Mech, Policy: w.Policy, DupModel: w.Model, Machines: 10, SlotsPerMachine: 2}
	dir := must(os.MkdirTemp("", "proger-profile-"))
	cpu, allocs := must(os.Create(dir+"/cpu.pprof")), must(os.Create(dir+"/allocs.pprof"))
	var before, after runtime.MemStats
	runtime.GC() // the CPU classes are a snapshot each collection takes: one at either end frames the operations
	usedBefore, gcBefore := cpuSeconds()
	runtime.ReadMemStats(&before)
	must(0, pprof.StartCPUProfile(cpu))
	start := time.Now()
	for i := 0; i < *n; i++ {
		must(proger.Resolve(w.DS, o))
	}
	wall := time.Since(start)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	runtime.GC()
	usedAfter, gcAfter := cpuSeconds()
	must(0, pprof.Lookup("allocs").WriteTo(allocs, 0))
	// The collector's share of the run, from the runtime's own counters:
	// what a change to who allocates what moves first. (GCCPUFraction is
	// since process start, set-up included.)
	ops := float64(*n)
	used := usedAfter - usedBefore
	log.Printf("per Resolve: %.1f ms wall, %.1f ms CPU, %.1f%% of it the collector's", wall.Seconds()*1e3/ops, used*1e3/ops, 100*(gcAfter-gcBefore)/used)
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / ops
	log.Printf("per Resolve: %.1f MiB allocated (%.0f B per input entity), %.0f mallocs, %.1f collector cycles; GCCPUFraction %.1f%%, VmHWM %s",
		alloc/(1<<20), alloc/float64(w.DS.Len()), float64(after.Mallocs-before.Mallocs)/ops,
		float64(after.NumGC-before.NumGC)/ops, 100*after.GCCPUFraction, vmHWM())
	log.Printf("%d × Resolve(%s): go tool pprof -top [-sample_index=alloc_objects] %s/{cpu,allocs}.pprof", *n, *workload, dir)
}
