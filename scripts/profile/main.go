// Command profile runs Resolve on a benchmark driver workload's inputs (bench/workloads.go), writes cpu.pprof and allocs.pprof
// and prints, per operation, wall and CPU milliseconds and the collector's share of that CPU, MiB allocated, mallocs and
// cycles, plus GCCPUFraction and VmHWM.
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

func main() {
	workload := flag.String("workload", "persons", "persons, books or pubs")
	n := flag.Int("n", 15, "Resolve operations to run")
	flag.Parse()
	gen, ok := map[string]func(n int, seed int64) (*proger.Dataset, *proger.GroundTruth){"persons": proger.GeneratePersons, "books": proger.GenerateBooks, "pubs": proger.GeneratePublications}[*workload]
	if !ok {
		log.Fatalf("profile: unknown workload %q (want persons, books or pubs)", *workload)
	}
	size := map[string]int{"persons": 50000, "books": 10000, "pubs": 5000}[*workload]
	ds, _ := gen(size, 1)
	idx, edit, exact := ds.Schema.Index, proger.EditDistance, proger.ExactMatch
	rule := func(attr string, w float64, k proger.SimKind) proger.Rule {
		return proger.Rule{Attr: idx(attr), Weight: w, Kind: k}
	}
	o := proger.Options{Machines: 10, SlotsPerMachine: 2, Mechanism: proger.SN, Policy: proger.CiteSeerXPolicy()}
	switch *workload {
	case "persons":
		o.Families = proger.Families{{Name: "S", Attr: idx("name"), PrefixLens: []int{1, 2, 4}, Index: 1, Kind: proger.KeySoundex}, {Name: "C", Attr: idx("city"), PrefixLens: []int{3, 5}, Index: 2}, {Name: "T", Attr: idx("state"), PrefixLens: []int{2}, Index: 3}}
		o.Matcher = proger.MustMatcher(0.6, rule("phone", 0.6, exact), rule("state", 0.4, exact))
	case "books":
		o.Mechanism, o.Policy, o.Families = proger.PSNM, proger.OLBooksPolicy(), proger.OLBooksFamilies(ds.Schema)
		o.Matcher = proger.MustMatcher(0.62, rule("title", 0.35, edit), rule("authors", 0.25, edit), rule("publisher", 0.10, edit), rule("year", 0.08, exact), rule("language", 0.06, exact), rule("format", 0.05, exact), rule("pages", 0.05, exact), rule("edition", 0.06, exact))
	case "pubs":
		o.Families = proger.CiteSeerXFamilies(ds.Schema)
		abstract := proger.Rule{Attr: idx("abstract"), Weight: 0.3, Kind: edit, MaxChars: 350}
		o.Matcher = proger.MustMatcher(0.75, rule("title", 0.5, edit), abstract, rule("venue", 0.2, edit))
	}
	if *workload != "persons" {
		train, gt := gen(size/4, 100001)
		o.DupModel = proger.TrainDupModel(train, gt, o.Families)
	}
	dir := must(os.MkdirTemp("", "proger-profile-"))
	cpu, allocs := must(os.Create(dir+"/cpu.pprof")), must(os.Create(dir+"/allocs.pprof"))
	var before, after runtime.MemStats
	runtime.GC() // the CPU classes are a snapshot each collection takes: one at either end frames the operations
	usedBefore, gcBefore := cpuSeconds()
	runtime.ReadMemStats(&before)
	must(0, pprof.StartCPUProfile(cpu))
	start := time.Now()
	for i := 0; i < *n; i++ {
		must(proger.Resolve(ds, o))
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
	log.Printf("per Resolve: %.1f MiB allocated, %.0f mallocs, %.1f collector cycles; GCCPUFraction %.1f%%, VmHWM %s",
		float64(after.TotalAlloc-before.TotalAlloc)/ops/(1<<20), float64(after.Mallocs-before.Mallocs)/ops,
		float64(after.NumGC-before.NumGC)/ops, 100*after.GCCPUFraction, vmHWM())
	log.Printf("%d × Resolve(%s): go tool pprof -top [-sample_index=alloc_objects] %s/{cpu,allocs}.pprof", *n, *workload, dir)
}
