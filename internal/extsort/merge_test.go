package extsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func sliceSource(xs []int) func() (int, bool) {
	i := 0
	return func() (int, bool) {
		if i >= len(xs) {
			return 0, false
		}
		v := xs[i]
		i++
		return v, true
	}
}

func intCmp(a, b int) int { return a - b }

func TestMergerEmptyAndSingle(t *testing.T) {
	m := NewMerger(nil, intCmp)
	if _, ok := m.Next(); ok {
		t.Error("empty merger yielded a value")
	}
	m = NewMerger([]func() (int, bool){sliceSource([]int{1, 2, 3})}, intCmp)
	for want := 1; want <= 3; want++ {
		v, ok := m.Next()
		if !ok || v != want {
			t.Fatalf("got (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if _, ok := m.Next(); ok {
		t.Error("exhausted merger yielded a value")
	}
}

func TestMergerMergesSortedSourcesProperty(t *testing.T) {
	f := func(seed int64, k uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(k%7) + 1
		var all []int
		pulls := make([]func() (int, bool), n)
		for s := 0; s < n; s++ {
			m := rng.Intn(20)
			xs := make([]int, m)
			for i := range xs {
				xs[i] = rng.Intn(10) // duplicates across and within sources
			}
			sort.Ints(xs)
			all = append(all, xs...)
			pulls[s] = sliceSource(xs)
		}
		sort.Ints(all)
		m := NewMerger(pulls, intCmp)
		for i, want := range all {
			v, ok := m.Next()
			if !ok || v != want {
				t.Logf("position %d: got (%d,%v), want %d", i, v, ok, want)
				return false
			}
		}
		_, ok := m.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

type tagged struct {
	key string
	src int
}

func TestMergerStableAcrossSources(t *testing.T) {
	// Every source holds the same keys; ties must surface in source
	// order, which is what the engine's map-task ordering relies on.
	const k = 5
	pulls := make([]func() (tagged, bool), k)
	for s := 0; s < k; s++ {
		xs := []tagged{{"a", s}, {"a", s}, {"b", s}}
		i := 0
		pulls[s] = func() (tagged, bool) {
			if i >= len(xs) {
				return tagged{}, false
			}
			v := xs[i]
			i++
			return v, true
		}
	}
	m := NewMerger(pulls, func(a, b tagged) int {
		if a.key < b.key {
			return -1
		}
		if a.key > b.key {
			return 1
		}
		return 0
	})
	var got []tagged
	for {
		v, ok := m.Next()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 3*k {
		t.Fatalf("merged %d records, want %d", len(got), 3*k)
	}
	// Within each key, source indices must be non-decreasing.
	for i := 1; i < len(got); i++ {
		if got[i].key == got[i-1].key && got[i].src < got[i-1].src {
			t.Fatalf("tie broken out of source order at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}
