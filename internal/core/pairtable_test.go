package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"proger/internal/costmodel"
	"proger/internal/entity"
	"proger/internal/mechanism"
	"proger/internal/sched"
)

// slotPair is a pair of tree slots, in either order, as Decide hands
// them to the resolved set.
type slotPair struct{ a, b int32 }

// checkAgainstPairSet feeds the same slot pairs to a pairTable and to an
// entity.PairSet: has must answer "seen before" exactly when the set
// already holds the pair, without inserting it — the words do not
// change —, testAndSet must give the same answer and insert it, and the
// table must hold exactly the set's pairs after, in whichever layout
// reset chose.
func checkAgainstPairSet(t *testing.T, name string, tab *pairTable, pairs []slotPair) {
	t.Helper()
	oracle := entity.PairSet{}
	for i, sp := range pairs {
		p := entity.MakePair(entity.ID(sp.a), entity.ID(sp.b))
		want := oracle.Has(p)
		if i%8 == 0 {
			words, n := slices.Clone(tab.words), tab.n
			if got := tab.has(sp.a, sp.b); got != want {
				t.Fatalf("%s: pair %d %v: has = %v, PairSet says %v", name, i, p, got, want)
			}
			if tab.n != n || !slices.Equal(tab.words, words) {
				t.Fatalf("%s: pair %d %v: has inserted", name, i, p)
			}
		}
		oracle.Add(p)
		if got := tab.testAndSet(sp.a, sp.b); got != want {
			t.Fatalf("%s: pair %d %v: testAndSet = %v, PairSet says %v", name, i, p, got, want)
		}
	}
	if tab.n != len(oracle) {
		t.Errorf("%s: table counts %d pairs, set holds %d", name, tab.n, len(oracle))
	}
	stored := 0
	if !tab.hashed {
		for _, w := range tab.words {
			stored += bits.OnesCount64(w)
		}
		for p := range oracle {
			if w, m := tab.bit(int32(p.Lo), int32(p.Hi)); *w&m == 0 {
				t.Errorf("%s: bitmap lacks %v", name, p)
			}
		}
	} else {
		for _, k := range tab.words {
			if k != 0 {
				stored++
				if p := (entity.Pair{Lo: entity.ID(k >> 32), Hi: entity.ID(uint32(k))}); !oracle.Has(p) {
					t.Errorf("%s: slot holds %v, which was never inserted", name, p)
				}
			}
		}
		if load := float64(tab.n) / float64(len(tab.words)); load > 0.75 {
			t.Errorf("%s: load %.2f over the 3/4 bound", name, load)
		}
	}
	if stored != len(oracle) {
		t.Errorf("%s: %d stored for %d pairs", name, stored, len(oracle))
	}
	// A tree's last visit only tests: asking about everything again, and
	// about pairs never inserted, changes nothing.
	words := slices.Clone(tab.words)
	for _, sp := range pairs {
		if !tab.has(sp.b, sp.a) {
			t.Fatalf("%s: has lost %v", name, sp)
		}
	}
	if !slices.Equal(tab.words, words) || tab.n != len(oracle) {
		t.Errorf("%s: test-only probes changed the table", name)
	}
}

// bitmapWords is the size of a tree's triangular bitmap, in words.
func bitmapWords(size int) int { return (size*(size-1)/2 + 63) / 64 }

func TestPairTableAgainstPairSet(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	random := func(n int, size int32) []slotPair {
		out := make([]slotPair, n)
		for i := range out {
			a := rng.Int31n(size)
			b := rng.Int31n(size - 1)
			if b >= a {
				b++
			}
			out[i] = slotPair{a, b}
		}
		return out
	}
	// One table through every case, as one borrowed tree state after
	// another sees it: reset must leave nothing of the case before, at
	// whatever size and in whichever layout it comes back.
	var tab pairTable
	// Small trees: most insertions repeat. Large ones: most are new.
	for _, c := range []struct {
		n, hint int
		size    int32
	}{{5000, 0, 40}, {5000, 800, 40}, {20000, 0, 1 << 16}, {20000, 20000, 1 << 16}, {20000, 100, math.MaxInt32 / 2}, {2000, 50, 300}} {
		tab.reset(int(c.size), c.hint)
		checkAgainstPairSet(t, fmt.Sprintf("random n=%d size=%d hint=%d", c.n, c.size, c.hint), &tab, random(c.n, c.size))
	}

	// The corners of the slot space, each pair twice, in both layouts.
	const top = math.MaxInt32 / 2
	corners := []slotPair{{0, 1}, {1, 0}, {0, top}, {top - 1, top}, {1, 2}, {2, 0}, {1, 1 << 16}, {1<<16 + 1, 1 << 16}, {0, 1 << 30}}
	tab.reset(top+1, 0)
	checkAgainstPairSet(t, "corners, hashed", &tab, append(corners, corners...))
	tab.reset(3, 0)
	checkAgainstPairSet(t, "corners, bitmap", &tab, []slotPair{{0, 1}, {1, 2}, {2, 0}, {1, 0}, {2, 1}, {0, 2}})

	// At, under and over the cutover: the bitmap while it is no larger
	// than the hash table the prediction needs, the hash beyond; either
	// way every slot pair of the tree fits.
	sawAt := 0
	for _, size := range []int{2, 3, 12, 64, 65, 300, 2000} {
		bm := bitmapWords(size)
		for hint := max(0, 3*(bm-4)/4-3); hint <= 3*(bm-4)/4+3; hint++ {
			tab.reset(size, hint)
			hash := hint + hint/3 + 4
			if hash == bm {
				sawAt++
			}
			if want := hash < bm; tab.hashed != want {
				t.Errorf("size %d hint %d: hashed = %v with %d hash words against %d bitmap words", size, hint, tab.hashed, hash, bm)
			}
			if want := min(hash, bm); len(tab.words) != want {
				t.Errorf("size %d hint %d: %d words, want %d", size, hint, len(tab.words), want)
			}
			checkAgainstPairSet(t, fmt.Sprintf("cutover size=%d hint=%d", size, hint), &tab, random(min(4*size, 3000), int32(size)))
		}
	}
	if sawAt == 0 {
		t.Error("no case put the hash table at exactly the bitmap's size")
	}

	// Sized exactly: the predicted count must fit without growing, and
	// one pair more than the bound allows must grow the table, not lose
	// anything.
	seq := func(n int) []slotPair {
		out := make([]slotPair, n)
		for i := range out {
			out[i] = slotPair{int32(i / 1000), int32(1000 + i%1000)}
		}
		return out
	}
	for _, hint := range []int{0, 1, 7, 100, 4096} {
		tab.reset(1<<16, hint)
		words := len(tab.words)
		if want := hint + hint/3 + 4; words != want || !tab.hashed {
			t.Errorf("hint %d: reset left %d words (hashed %v), want exactly %d hashed", hint, words, tab.hashed, want)
		}
		checkAgainstPairSet(t, fmt.Sprintf("exact hint=%d", hint), &tab, seq(hint))
		if len(tab.words) != words {
			t.Errorf("hint %d: table grew from %d to %d words while holding what it was sized for", hint, words, len(tab.words))
		}
		tab.reset(1<<16, hint)
		checkAgainstPairSet(t, fmt.Sprintf("overfull hint=%d", hint), &tab, seq(4*hint+50))
		if len(tab.words) == words {
			t.Errorf("hint %d: table never grew", hint)
		}
	}
	tab.off()
	if tab.tracked() {
		t.Error("a table switched off is still tracked")
	}
}

// TestPairTableCollidingKeys fills a hashed table with keys that all
// start their probe at the same slot, wrapping past the end of the
// array.
func TestPairTableCollidingKeys(t *testing.T) {
	var tab pairTable
	tab.reset(1<<16, 64)
	target := len(tab.words) - 2 // runs of collisions must wrap around
	var pairs []slotPair
	for lo := int32(0); len(pairs) < 40; lo++ {
		for hi := lo + 1; hi < lo+2000 && len(pairs) < 40; hi++ {
			if tab.home(slotPairKey(lo, hi)) == target {
				pairs = append(pairs, slotPair{hi, lo})
			}
		}
	}
	checkAgainstPairSet(t, "colliding", &tab, append(pairs, pairs...))
}

// contractEnv records the Decide/Emit stream of one mechanism visit and
// fails on any departure from the contract the resolved set relies on:
// a pair ruled Resolve is emitted — that pair, once — before the next
// Decide, nothing else is ever emitted, and no pair is asked about
// twice in one visit, which is what lets a tree's last visit test the
// set without inserting — and from the one the reduce task's columns
// rely on: the positions Decide is given are those of the pair's
// entities in the block it handed over.
type contractEnv struct {
	t       *testing.T
	name    string
	ents    []*entity.Entity
	pending *entity.Pair
	emitted int
	asked   entity.PairSet
	decide  func(entity.Pair) mechanism.Decision
	// stream is every Decide and Emit of the visit, in order.
	stream []string
}

func (c *contractEnv) env(match func(a, b *entity.Entity) bool, stop mechanism.StopFunc) *mechanism.Env {
	c.asked = entity.PairSet{}
	return &mechanism.Env{
		SortAttr: 0,
		Match:    match,
		Decide: func(p entity.Pair, i, j int) mechanism.Decision {
			if got := entity.MakePair(c.ents[i].ID, c.ents[j].ID); i == j || got != p {
				c.t.Errorf("%s: Decide(%v) with positions %d, %d, which hold %v", c.name, p, i, j, got)
			}
			if c.pending != nil {
				c.t.Errorf("%s: Decide(%v) while %v, ruled Resolve, has not been emitted", c.name, p, *c.pending)
			}
			if !c.asked.Add(p) {
				c.t.Errorf("%s: Decide(%v) twice in one visit", c.name, p)
			}
			d := c.decide(p)
			if d == mechanism.Resolve {
				c.pending = &p
			}
			c.stream = append(c.stream, fmt.Sprintf("decide %v %d", p, d))
			return d
		},
		Emit: func(p entity.Pair, isDup bool) {
			if c.pending == nil || *c.pending != p {
				c.t.Errorf("%s: Emit(%v) without a Resolve ruling on it just before", c.name, p)
			}
			c.pending = nil
			c.emitted++
			c.stream = append(c.stream, fmt.Sprintf("emit %v %v", p, isDup))
		},
		Charge: func(costmodel.Units) {},
		Stop:   stop,
		Cost:   costmodel.Default(),
	}
}

// TestMechanismsEmitEachResolvedPairBeforeNextDecide pins the contract
// that lets Job2Reducer.resolve enter a pair into the resolved set in
// Decide instead of Emit, and the two skip rulings be told apart by
// nobody: every mechanism, under every mix of rulings, with and without
// an early stop, emits exactly the pairs it was told to resolve, each
// before it asks about another, and charges and counts both skip
// rulings alike. The block is in no particular order and its sort keys
// tie, so the positions given to Decide are checked where they differ
// from IDs and from sort ranks, and every visit is run a second time
// with the sort keys supplied, which must change nothing.
func TestMechanismsEmitEachResolvedPairBeforeNextDecide(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ents := make([]*entity.Entity, 60)
	sortKeys := make([]string, len(ents))
	for i, id := range rng.Perm(len(ents)) {
		// A dozen distinct values, six sort keys in two spellings: runs
		// of equal keys, so matches chain (R-Swoosh merges, PSNM
		// promotions).
		name := fmt.Sprintf("%s%02d", []string{"name", "NAME"}[rng.Intn(2)], rng.Intn(6))
		ents[i] = &entity.Entity{ID: entity.ID(id), Attrs: []string{name}}
		sortKeys[i] = strings.ToLower(name)
	}
	match := func(a, b *entity.Entity) bool { return a.Attrs[0] == b.Attrs[0] }
	rulings := map[string]func(entity.Pair) mechanism.Decision{
		"all resolve": func(entity.Pair) mechanism.Decision { return mechanism.Resolve },
		"mixed": func(p entity.Pair) mechanism.Decision {
			return mechanism.Decision((int(p.Lo)*7 + int(p.Hi)*3) % 3)
		},
		"all skipped": func(p entity.Pair) mechanism.Decision {
			return mechanism.SkipResolved + mechanism.Decision(p.Hi%2)
		},
	}
	stops := map[string]mechanism.StopFunc{
		"to exhaustion": nil,
		"early stop":    mechanism.DistinctThreshold(150),
	}
	mechs := []mechanism.Mechanism{mechanism.SN{}, mechanism.PSNM{}, mechanism.Hierarchy{}, mechanism.RSwoosh{}}
	for _, m := range mechs {
		for rname, ruling := range rulings {
			for sname, stop := range stops {
				c := &contractEnv{t: t, name: m.Name() + "/" + rname + "/" + sname, ents: ents, decide: ruling}
				st := m.ResolveBlock(c.env(match, stop), ents, 8)
				if c.pending != nil {
					t.Errorf("%s: visit ended with %v ruled Resolve and never emitted", c.name, *c.pending)
				}
				if (c.emitted == 0) != (rname == "all skipped") {
					t.Errorf("%s: %d pairs emitted", c.name, c.emitted)
				}
				keyed := &contractEnv{t: t, name: c.name + "/SortKeys", ents: ents, decide: ruling}
				env := keyed.env(match, stop)
				env.SortKeys = sortKeys
				if stKeyed := m.ResolveBlock(env, ents, 8); stKeyed != st || !reflect.DeepEqual(keyed.stream, c.stream) {
					t.Errorf("%s: with SortKeys %+v after %d events, without %+v after %d", c.name, stKeyed, len(keyed.stream), st, len(c.stream))
				}
			}
		}
		// Swapping one skip ruling for the other changes nothing a
		// caller can see: same statistics, same total charge.
		visit := func(skip mechanism.Decision) (mechanism.VisitStats, costmodel.Units) {
			var charged costmodel.Units
			c := &contractEnv{t: t, name: m.Name() + "/skip-kind", ents: ents, decide: func(p entity.Pair) mechanism.Decision {
				if (p.Lo+p.Hi)%2 == 0 {
					return skip
				}
				return mechanism.Resolve
			}}
			env := c.env(match, nil)
			env.Charge = func(u costmodel.Units) { charged += u }
			return m.ResolveBlock(env, ents, 8), charged
		}
		stA, costA := visit(mechanism.SkipResolved)
		stB, costB := visit(mechanism.SkipNotResponsible)
		if stA != stB || costA != costB {
			t.Errorf("%s: SkipResolved gives %+v at cost %v, SkipNotResponsible %+v at cost %v", m.Name(), stA, costA, stB, costB)
		}
	}
}

// TestJob2PartitionerDoesNotAllocate: the partitioner runs once per
// map-output record.
func TestJob2PartitionerDoesNotAllocate(t *testing.T) {
	key := sched.SQKey(sched.SQFor(3, 17))
	if got := testing.AllocsPerRun(1000, func() {
		if Job2Partitioner(key, 8) != 3 {
			t.Fatal("wrong partition")
		}
	}); got != 0 {
		t.Errorf("Job2Partitioner allocates %v times per record, want 0", got)
	}
}
