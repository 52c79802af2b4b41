package proger_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"proger"
	"proger/internal/core"
	"proger/internal/experiments"
	"proger/internal/mechanism"
	"proger/internal/sched"
)

// resolveDigest hashes everything a Resolve hands back that a caller
// can order a result by: every duplicate event (time, pair) in emission
// order, then the total simulated time.
func resolveDigest(res *core.Result) string {
	h := sha256.New()
	var buf [16]byte
	for _, ev := range res.Events {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(ev.Time))
		binary.LittleEndian.PutUint32(buf[8:], uint32(ev.Pair.Lo))
		binary.LittleEndian.PutUint32(buf[12:], uint32(ev.Pair.Hi))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(res.TotalTime))
	h.Write(buf[:8])
	return hex.EncodeToString(h.Sum(nil))
}

// workloadOptions is the 4×2-slot configuration every golden case runs.
func workloadOptions(w *experiments.Workload, mech mechanism.Mechanism) core.Options {
	opts := w.Options(4, sched.Ours)
	opts.Mechanism = mech
	return opts
}

// TestMatchKernelKeepsResolveBytes pins Resolve's output to digests
// recorded at the commit before the bit-parallel edit-distance kernel
// and the per-rule distance budget went in (PR 14). The cross-mode
// identity tests compare the current code with itself; this one
// compares it with the row-DP kernel it replaced, so a match-layer
// change that flips a single decision or reorders a single event
// fails here.
func TestMatchKernelKeepsResolveBytes(t *testing.T) {
	pubs := experiments.PublicationsWorkload(1200, 3)
	books := experiments.BooksWorkload(2000, 3)
	cases := []struct {
		name string
		w    *experiments.Workload
		mech mechanism.Mechanism
		want string
	}{
		{"publications/SN", pubs, mechanism.SN{}, "b200be005dd131bd71aef035c2fdb8d079071559b1cd59587268b79297e3b47e"},
		{"publications/PSNM", pubs, mechanism.PSNM{}, "c193fc56e7fdbeed8821b2cd21aab548baf0361b19246df284b2323819f3bc71"},
		{"books/SN", books, mechanism.SN{}, "f66d5f5febe7cbfe3c4e2206c8ccab25c19647b25cf709425592c44c4d757f86"},
		{"books/PSNM", books, mechanism.PSNM{}, "bba22e074ad325fcf90f04da69c6266288b5ce5c8a462576c0a2f107a76a4093"},
	}
	for _, c := range cases {
		res, err := core.Resolve(c.w.DS, workloadOptions(c.w, c.mech))
		if err != nil {
			t.Fatalf("%s: Resolve: %v", c.name, err)
		}
		if got := resolveDigest(res); got != c.want {
			t.Errorf("%s: %d events, total %v: digest %s, want %s", c.name, len(res.Events), res.TotalTime, got, c.want)
		}
	}
}

// TestRecallCurvesKeepTheirBytes pins both recall curves of the golden
// workloads, under the paper's approach and under Basic F, on 4×2
// slots: the SHA-256 of the quality export's JSON and of its curve CSV
// (the self-relative curve of the recorder's block observations), and
// of the float bits of the ground-truth curve's AUC, final recall and
// recall on a 12-point grid up to the run's end. A change to how either
// curve is built or integrated that moves one bit fails here.
func TestRecallCurvesKeepTheirBytes(t *testing.T) {
	pubs := experiments.PublicationsWorkload(1200, 3)
	books := experiments.BooksWorkload(2000, 3)
	persons, err := experiments.Generate("persons-exact", 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name             string
		w                *experiments.Workload
		basic            bool
		json, csv, curve string
	}{
		{"publications/Ours", pubs, false,
			"f54cadbebd64310deb967b0dc16754ea652236c26b9237efa61c19d9908314a4",
			"37dbf53a72c3e009b4ad2e12507087f784095ec2dc5695144f1c012bd3284c03",
			"911066c0f83e9037ea58a76e0f4ffa7856a4b275e25bd2496d2ff97eb08f1209"},
		{"publications/Basic", pubs, true,
			"d579e97228ac1e6d4ae44499f2cbe608aa92925c17a44c2674db88638d428a24",
			"b0ebaed82e03c486aa50654fa61799e8a084097165241fdf783d9d062beb7424",
			"149f2184fd50671146608407c15fc1524ab7ea167080239b0745d404a2cf4235"},
		{"books/Ours", books, false,
			"3a4335e8796756605d4ff59c71ebdeb1ba8c6a33eb80f632f9b54eb0b863f35b",
			"9690306eb8e420a356eed14c70c750d395c549e0869d9756c0d8c343ba8d9d65",
			"1fa473a6ed95a3d03f1cfce2c3786e960ba1a52e8849936783e468fa1ebabd87"},
		{"books/Basic", books, true,
			"732bf81898d2fb8fcb0e40bd8bd4097f69c200f0631f5f2aa659b762a3e266c8",
			"435f6f72b02ce1db7389851fb0233a9d0c7e80e15c883c6fe0d73d96f7d4c55f",
			"f99c114f2ebefee502138fcbbca1cb83859dfd65b420e5c8730ec5877c065768"},
		{"persons-exact/Ours", persons, false,
			"44509c389ed69c22ec759ceb089349e1b44250c30dbffe843a991e408100ed31",
			"845f3a917f40aab34cf8e345f7baaca86dc22f1f620422a1d5ff83eda3e051b8",
			"3df91358927db89a6e9a865079af71daf9ebdc37462c1e94af21388fd299f633"},
		{"persons-exact/Basic", persons, true,
			"74c710518f43233ef69a09a453dd50faae25bbb1263e1435ce4393f13d6f5722",
			"845db5701a99985bbfa7237f8f39cd2986ca10f4377362ee50811fd08852296a",
			"d44760334ae3271ed68cab5cde4cc134f8f6f348b465ee338e1d48b3212381a1"},
	}
	digest := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	for _, c := range cases {
		rec := proger.NewQualityRecorder()
		var res *core.Result
		if c.basic {
			opts := c.w.BasicOptions(4, 15, -1)
			opts.Quality = rec
			res, err = core.ResolveBasic(c.w.DS, opts)
		} else {
			opts := c.w.Options(4, sched.Ours)
			opts.Quality = rec
			res, err = core.Resolve(c.w.DS, opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		exp := rec.Export(0)
		var js, csv bytes.Buffer
		if err := exp.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := exp.Curve.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		curve := proger.BuildCurve(res.EventsAgainst(c.w.GT.IsDup), c.w.GT.NumDupPairs(), res.TotalTime)
		grid := make([]proger.CostUnits, 12)
		for i := range grid {
			grid[i] = res.TotalTime * proger.CostUnits(i+1) / proger.CostUnits(len(grid))
		}
		var bits []byte
		for _, f := range append([]float64{curve.AUC(), curve.FinalRecall()}, curve.Sample(grid)...) {
			bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(f))
		}
		for _, d := range []struct{ what, got, want string }{
			{"quality JSON", digest(js.Bytes()), c.json},
			{"curve CSV", digest(csv.Bytes()), c.csv},
			{"ground-truth curve", digest(bits), c.curve},
		} {
			if d.got != d.want {
				t.Errorf("%s: %s digest %s, want %s", c.name, d.what, d.got, d.want)
			}
		}
	}
}

// persons is the benchmark's persons-exact workload on n entities from
// seed, resolved on a smaller cluster: Soundex and prefix families,
// exact rules, SN.
func persons(t testing.TB, n int, seed int64) (*proger.Dataset, core.Options) {
	w, err := experiments.Generate("persons-exact", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w.DS, workloadOptions(w, w.Mech)
}

// TestRecordPathKeepsResolveBytes pins the Job-2 record path — sequence
// keys, the per-tree resolved-pair table, the entity codec, blocking-key
// derivation — to digests recorded at the commit before PR 15 replaced
// them (d8b2f14: fmt-rendered keys, a PairSet per tree, one string per
// decoded attribute, whole-value lowercasing). The persons case is the
// shape of the benchmark's persons-exact workload (Soundex and prefix
// families, exact rules, SN).
func TestRecordPathKeepsResolveBytes(t *testing.T) {
	ds, opts := persons(t, 5000, 3)
	res, err := core.Resolve(ds, opts)
	if err != nil {
		t.Fatalf("persons/SN: Resolve: %v", err)
	}
	const want = "72e8f09897d5a22e2224b903d437bdbace1bb5add348facf0c721532a5f2f595"
	if got := resolveDigest(res); got != want {
		t.Errorf("persons/SN: %d events, total %v: digest %s, want %s", len(res.Events), res.TotalTime, got, want)
	}
}

// resolveAllocCeiling is 10 % over what one Resolve of the dataset
// below allocates: 23 000 objects when recorded (39 100 while every map
// value was an allocation of its own and every decoded entity's
// attributes and sort key strings of their own, 43 982 while every task
// allocated its working memory — stage, tree states, sort and group
// scratch — afresh, 114 267 while Job 1's map and reduce functions and
// Job 2's locate decoded every entity they read a key of, 173 286 before
// the slab decoders and the columnar tree state), a count that repeats
// to about half a percent. Under -race, where sync.Pool drops a
// quarter of what is put back — a block visit's decode scratch among
// it —, it is 18 % higher, and the ceiling a fifth higher. The 2 300 to
// spare are fewer than the 6 000 records Job 1 shuffles here or the
// 17 000 of Job 2, so an allocation per record put back on either
// reduce side, or per emission on a map side, fails the test; one per
// input record (2 000) does not.
const resolveAllocCeiling = 25_300

// resolveAllocBytesCeiling is 10 % over the bytes one such Resolve
// allocates once the pools are warm: 3.64 MB when recorded (7.63 MB
// while map output was grown, copied and gathered into a second array
// and every reduce-side working set was the task's own), repeating to
// 1 %. A buffer of a task that stops being borrowed shows here long
// before it shows in the object count: the tree states alone are 1.5 MB
// of the difference in a few hundred objects. Not checked under -race,
// which reads 6.3 MB for the reason above.
const resolveAllocBytesCeiling = 4_000_000

// TestResolveAllocBudget fails when a Resolve of 2 000 persons on one
// worker allocates more objects than resolveAllocCeiling or more bytes
// than resolveAllocBytesCeiling: a per-pair or per-record allocation put
// back on the Job-1 or Job-2 record path (80 000 candidate pairs and
// 17 000 shuffled records here), or a task's working memory no longer
// borrowed, is told by `go test`, not by a profile three PRs later. When
// a change allocates more for a reason, record the new figure here with
// the reason in the commit.
func TestResolveAllocBudget(t *testing.T) {
	ds, opts := persons(t, 2000, 3)
	opts.Workers = 1
	got := testing.AllocsPerRun(5, func() {
		if _, err := core.Resolve(ds, opts); err != nil {
			t.Fatal(err)
		}
	})
	ceiling := resolveAllocCeiling
	if raceDetector {
		ceiling += ceiling / 5
	}
	t.Logf("%.0f allocations per Resolve, ceiling %d", got, ceiling)
	if got > float64(ceiling) {
		t.Errorf("Resolve allocates %.0f objects, ceiling %d", got, ceiling)
	}
	// Bytes, over five more operations on one processor (as AllocsPerRun
	// ran the ones above) with the collector held off: the pools are warm
	// by now and nothing empties them, so the figure is what Resolve
	// allocates beside its borrowed memory, not where a cycle fell.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 5; i++ {
		if _, err := core.Resolve(ds, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / 5
	t.Logf("%d bytes per Resolve, ceiling %d", bytes, resolveAllocBytesCeiling)
	if bytes > resolveAllocBytesCeiling && !raceDetector {
		t.Errorf("Resolve allocates %d bytes, ceiling %d", bytes, resolveAllocBytesCeiling)
	}
}

// TestConcurrentResolvesShareNothing: Resolve borrows its tasks' working
// memory from process-wide pools, so operations that overlap hand
// buffers to one another — a stage that held 8-attribute books to a
// task staging 5-attribute persons, a large tree's state to a small
// tree of another dataset. Six operations at a time over datasets of
// different sizes, attribute counts, mechanisms and ablation knobs,
// three rounds, each goroutine moving on to another case every round:
// every Result must equal its serial run's. Under -race this is also
// the check that a buffer is never put back while something can still
// reach it.
func TestConcurrentResolvesShareNothing(t *testing.T) {
	many, manyOpts := persons(t, 3000, 5)
	few, fewOpts := persons(t, 400, 6)
	noDedup := manyOpts
	noDedup.DisableRedundancyElimination = true
	books := experiments.BooksWorkload(1200, 4)
	pubs := experiments.PublicationsWorkload(500, 4)
	cases := []struct {
		name string
		ds   *proger.Dataset
		opts core.Options
		want string
	}{
		{name: "persons/SN", ds: many, opts: manyOpts},
		{name: "persons/SN/no dedup", ds: many, opts: noDedup},
		{name: "few persons/SN", ds: few, opts: fewOpts},
		{name: "books/PSNM", ds: books.DS, opts: workloadOptions(books, mechanism.PSNM{})},
		{name: "books/Hierarchy", ds: books.DS, opts: workloadOptions(books, mechanism.Hierarchy{})},
		{name: "publications/SN", ds: pubs.DS, opts: workloadOptions(pubs, mechanism.SN{})},
	}
	for i := range cases {
		res, err := core.Resolve(cases[i].ds, cases[i].opts)
		if err != nil {
			t.Fatalf("%s: serial Resolve: %v", cases[i].name, err)
		}
		if len(res.Events) == 0 {
			t.Fatalf("%s: the serial run found no duplicates; the case compares nothing", cases[i].name)
		}
		cases[i].want = resolveDigest(res)
	}
	const goroutines, rounds = 6, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				c := cases[(g+round)%len(cases)]
				res, err := core.Resolve(c.ds, c.opts)
				if err != nil {
					t.Errorf("%s, goroutine %d, round %d: Resolve: %v", c.name, g, round, err)
					return
				}
				if got := resolveDigest(res); got != c.want {
					t.Errorf("%s, goroutine %d, round %d: digest %s, serial run's %s", c.name, g, round, got, c.want)
				}
			}
		}(g)
	}
	wg.Wait()
}
