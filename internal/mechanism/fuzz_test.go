package mechanism

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"proger/internal/entity"
	"proger/internal/normkey"
)

// orderBlock builds a block of n entities from seed and shape: sort
// attributes over a small alphabet — upper case, non-ASCII (é, İ, ẞ) and
// the zero byte, so that equal keys, keys that tie on ord up to zero
// padding and keys whose lowering changes length all occur — behind a
// prefix every key shares (bit 0: one longer than the 8 bytes an ord
// holds), with short keys (bit 1), with IDs ascending by position, or
// shuffled (bit 2), and behind one of two stems longer than an ord that
// the block does not share (bit 3), so that runs of hundreds tie on
// ord, as names that share a first name do.
func orderBlock(seed int64, n int, shape uint8) []*entity.Entity {
	rng := rand.New(rand.NewSource(seed))
	alphabet := []string{"a", "B", "b", "é", "İ", "ẞ", "\x00", "z"}
	prefix := "Ab"
	if shape&1 != 0 {
		prefix = "Smith, Johnathan "
	}
	maxLen := 12
	if shape&2 != 0 {
		maxLen = 3
	}
	ids := rng.Perm(4 * n)[:n]
	if shape&4 == 0 {
		slices.Sort(ids)
	}
	stems := []string{""}
	if shape&8 != 0 {
		stems = []string{"Jennifer Ann ", "Michael John "}
	}
	ents := make([]*entity.Entity, n)
	for i := range ents {
		var b strings.Builder
		b.WriteString(prefix)
		b.WriteString(stems[rng.Intn(len(stems))])
		for k := rng.Intn(maxLen + 1); k > 0; k-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		ents[i] = &entity.Entity{ID: entity.ID(ids[i]), Attrs: []string{b.String()}}
	}
	return ents
}

// FuzzBlockOrder holds the block sort to its definition — positions by
// lowered key, equal keys by ID — on random blocks, and, on every block
// in ascending ID order, the radix path (sortEntities takes it from
// radixMin entities on) and the comparator on positions to exactly the
// comparator's order on IDs. A block whose IDs do not ascend must be
// told apart: it takes the comparator on IDs.
func FuzzBlockOrder(f *testing.F) {
	for shape := uint8(0); shape < 16; shape++ {
		f.Add(int64(shape), uint16(600), shape)
	}
	f.Add(int64(9), uint16(radixMin-2), uint8(3)) // radixMin entities
	f.Add(int64(10), uint16(radixMin-3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shape uint8) {
		ents := orderBlock(seed, 2+int(size)%1000, shape)
		n := len(ents)
		keys := make([]string, n)
		for i, e := range ents {
			keys[i] = strings.ToLower(e.Attrs[0])
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			if c := strings.Compare(keys[a], keys[b]); c != 0 {
				return c
			}
			return cmp.Compare(ents[a].ID, ents[b].ID)
		})
		// Through sortEntities, with the keys supplied and derived.
		for _, supplied := range []bool{true, false} {
			te := newTestEnv(entity.PairSet{})
			if supplied {
				te.env.SortKeys = keys
			}
			if got := te.env.sortEntities(ents, new(sortScratch)); !slices.Equal(got, want) {
				t.Fatalf("n=%d shape=%d keys supplied %v: order %v, want %v", n, shape, supplied, got, want)
			}
		}
		ascending := slices.IsSortedFunc(ents, func(a, b *entity.Entity) int { return cmp.Compare(a.ID, b.ID) })
		if got := inIDOrder(ents); got != ascending {
			t.Fatalf("n=%d shape=%d: inIDOrder = %v with ascending IDs %v", n, shape, got, ascending)
		}
		if !ascending {
			return
		}
		// All three sorts on the same items, whatever the block's size:
		// the radix path and positions standing in for IDs must give the
		// order of the comparator on the IDs themselves.
		skip := len(keys[0])
		for _, k := range keys[1:] {
			skip = normkey.CommonPrefix(keys[0], k, skip)
		}
		items := make([]normkey.Item, n)
		for i, k := range keys {
			items[i] = normkey.Item{Ord: normkey.Ord(k, skip), Idx: int32(i)}
		}
		positions := func(items []normkey.Item) []int32 {
			out := make([]int32, len(items))
			for i, it := range items {
				out[i] = it.Idx
			}
			return out
		}
		byComparator := slices.Clone(items)
		compareSort(byComparator, keys, skip, ents)
		sc := &sortScratch{tmp: make([]normkey.Item, n)}
		if byRadix := positions(sc.radixSort(slices.Clone(items), keys, skip)); !slices.Equal(byRadix, positions(byComparator)) {
			t.Fatalf("n=%d shape=%d: radix order %v, comparator %v", n, shape, byRadix, positions(byComparator))
		}
		byPosition := slices.Clone(items)
		compareSort(byPosition, keys, skip, nil)
		if !slices.Equal(positions(byPosition), positions(byComparator)) {
			t.Fatalf("n=%d shape=%d: by position %v, by ID %v", n, shape, positions(byPosition), positions(byComparator))
		}
	})
}
