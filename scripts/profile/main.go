// Command profile runs Resolve on a benchmark driver workload's inputs (bench/workloads.go: pubs and books from the same
// experiments constructors, persons restated), writes cpu.pprof and allocs.pprof and prints, per operation, wall and CPU
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

// persons is persons-exact's input. It must match the persons function
// of bench/workloads.go, which defines it: Soundex + city + state
// blocking, phone and state compared exactly, no trained model.
func persons() *experiments.Workload {
	ds, gt := proger.GeneratePersons(50000, 1)
	idx := ds.Schema.Index
	return &experiments.Workload{
		Name: "persons", DS: ds, GT: gt, Mech: proger.SN, Policy: proger.CiteSeerXPolicy(),
		Fams: proger.Families{
			{Name: "S", Attr: idx("name"), PrefixLens: []int{1, 2, 4}, Index: 1, Kind: proger.KeySoundex},
			{Name: "C", Attr: idx("city"), PrefixLens: []int{3, 5}, Index: 2},
			{Name: "T", Attr: idx("state"), PrefixLens: []int{2}, Index: 3},
		},
		Matcher: proger.MustMatcher(0.6,
			proger.Rule{Attr: idx("phone"), Weight: 0.6, Kind: proger.ExactMatch},
			proger.Rule{Attr: idx("state"), Weight: 0.4, Kind: proger.ExactMatch}),
	}
}

func main() {
	workload := flag.String("workload", "persons", "persons, books or pubs")
	n := flag.Int("n", 15, "Resolve operations to run")
	flag.Parse()
	build, ok := map[string]func() *experiments.Workload{
		"persons": persons,
		"books":   func() *experiments.Workload { return experiments.BooksWorkload(10000, 1) },
		"pubs":    func() *experiments.Workload { return experiments.PublicationsWorkload(5000, 1) },
	}[*workload]
	if !ok {
		log.Fatalf("profile: unknown workload %q (want persons, books or pubs)", *workload)
	}
	w := build()
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
