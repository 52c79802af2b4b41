package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"proger/internal/costmodel"
	"proger/internal/entity"
	"proger/internal/mechanism"
	"proger/internal/sched"
)

// checkAgainstPairSet feeds the same pairs to a pairTable and to an
// entity.PairSet: testAndSet must answer "seen before" exactly when the
// set already holds the pair, and hold exactly the set's pairs after.
func checkAgainstPairSet(t *testing.T, name string, tab *pairTable, pairs []entity.Pair) {
	t.Helper()
	oracle := entity.PairSet{}
	for i, p := range pairs {
		want := !oracle.Add(p)
		if got := tab.testAndSet(p); got != want {
			t.Fatalf("%s: pair %d %v: testAndSet = %v, PairSet says %v", name, i, p, got, want)
		}
	}
	if tab.n != len(oracle) {
		t.Errorf("%s: table counts %d pairs, set holds %d", name, tab.n, len(oracle))
	}
	stored := 0
	for _, k := range tab.slots {
		if k != 0 {
			stored++
			if p := (entity.Pair{Lo: entity.ID(k >> 32), Hi: entity.ID(uint32(k))}); !oracle.Has(p) {
				t.Errorf("%s: slot holds %v, which was never inserted", name, p)
			}
		}
	}
	if stored != len(oracle) {
		t.Errorf("%s: %d occupied slots for %d pairs", name, stored, len(oracle))
	}
	if load := float64(tab.n) / float64(len(tab.slots)); load > 0.75 {
		t.Errorf("%s: load %.2f over the 3/4 bound", name, load)
	}
}

func TestPairTableAgainstPairSet(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	random := func(n int, ids int32) []entity.Pair {
		out := make([]entity.Pair, n)
		for i := range out {
			a := rng.Int31n(ids)
			b := rng.Int31n(ids - 1)
			if b >= a {
				b++
			}
			out[i] = entity.MakePair(entity.ID(a), entity.ID(b))
		}
		return out
	}
	// One table through every case, as one borrowed tree state after
	// another sees it: reset must leave nothing of the case before, at
	// whatever size it comes back.
	var tab pairTable
	// Few IDs: most insertions repeat. Many IDs: most are new.
	for _, c := range []struct {
		n    int
		ids  int32
		hint int
	}{{5000, 40, 0}, {5000, 40, 800}, {20000, 1 << 20, 0}, {20000, 1 << 20, 20000}, {20000, math.MaxInt32, 100}} {
		tab.reset(c.hint)
		checkAgainstPairSet(t, fmt.Sprintf("random n=%d ids=%d hint=%d", c.n, c.ids, c.hint), &tab, random(c.n, c.ids))
	}

	// The corners of the ID space, each pair twice.
	const top = entity.ID(math.MaxInt32)
	corners := []entity.Pair{
		{Lo: 0, Hi: 1}, {Lo: 0, Hi: top}, {Lo: top - 1, Hi: top}, {Lo: 1, Hi: 2}, {Lo: 0, Hi: 2},
		{Lo: 1, Hi: 1 << 16}, {Lo: 1 << 16, Hi: 1<<16 + 1}, {Lo: 0, Hi: 1 << 30},
	}
	tab.reset(0)
	checkAgainstPairSet(t, "corners", &tab, append(corners, corners...))

	// Sized exactly: the predicted count must fit without growing, and
	// one pair more than the bound allows must grow the table, not lose
	// anything.
	seq := func(n int) []entity.Pair {
		out := make([]entity.Pair, n)
		for i := range out {
			out[i] = entity.Pair{Lo: entity.ID(i / 1000), Hi: entity.ID(1000 + i%1000)}
		}
		return out
	}
	for _, hint := range []int{0, 1, 7, 100, 4096} {
		tab.reset(hint)
		slots := len(tab.slots)
		if want := hint + hint/3 + 4; slots != want {
			t.Errorf("hint %d: reset left %d slots, want exactly %d", hint, slots, want)
		}
		checkAgainstPairSet(t, fmt.Sprintf("exact hint=%d", hint), &tab, seq(hint))
		if len(tab.slots) != slots {
			t.Errorf("hint %d: table grew from %d to %d slots while holding what it was sized for", hint, slots, len(tab.slots))
		}
		tab.reset(hint)
		checkAgainstPairSet(t, fmt.Sprintf("overfull hint=%d", hint), &tab, seq(4*hint+50))
		if len(tab.slots) == slots {
			t.Errorf("hint %d: table never grew", hint)
		}
	}
}

// TestPairTableCollidingKeys fills a table with keys that all start
// their probe at the same slot, wrapping past the end of the array.
func TestPairTableCollidingKeys(t *testing.T) {
	var tab pairTable
	tab.reset(64)
	target := len(tab.slots) - 2 // runs of collisions must wrap around
	var pairs []entity.Pair
	for lo := entity.ID(0); len(pairs) < 40; lo++ {
		for hi := lo + 1; hi < lo+2000 && len(pairs) < 40; hi++ {
			if p := (entity.Pair{Lo: lo, Hi: hi}); tab.home(pairKey(p)) == target {
				pairs = append(pairs, p)
			}
		}
	}
	checkAgainstPairSet(t, "colliding", &tab, append(pairs, pairs...))
}

// contractEnv records the Decide/Emit stream of one mechanism visit and
// fails on any departure from the contract the resolved set relies on:
// a pair ruled Resolve is emitted — that pair, once — before the next
// Decide, nothing else is ever emitted, and no pair is asked about
// twice in one visit — and from the one the reduce task's columns rely
// on: the positions Decide is given are those of the pair's entities in
// the block it handed over.
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
// that lets job2Blocks.resolve enter a pair into the resolved set in
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
