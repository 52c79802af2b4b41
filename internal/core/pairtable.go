package core

import (
	"math/bits"

	"proger/internal/entity"
)

// pairTable is a reduce task's resolved-pair set for one tree (§III-A):
// the pairs some block of the tree has already been told to resolve, so
// that a parent block resolved later skips them. It is insert-only and
// answers one question, so it is one flat open-addressing array of
// uint64(Lo)<<32|Hi with linear probing — a candidate pair costs one
// probe sequence (testAndSet) where a map costs a lookup in Decide and
// a lookup plus an assignment in Emit. entity.PairSet stays the type of
// results; this is bookkeeping that never leaves the reduce task.
//
// The zero word marks an empty slot: a canonical pair has Lo < Hi, so
// its Hi half is never zero. The slot count is whatever the caller's
// prediction asks for, not a power of two — a flat table that doubled
// its way up would hold up to twice the memory it needs and, while
// growing, three times.
type pairTable struct {
	slots []uint64
	n     int
}

// reset empties the table and sizes it so that `pairs` insertions stay
// within the 3/4 load bound, i.e. never grow it: exactly that many
// slots, cleared, out of the array it already has when that is long
// enough.
func (t *pairTable) reset(pairs int) {
	n := pairs + pairs/3 + 4
	if cap(t.slots) < n {
		t.slots = make([]uint64, n)
	} else {
		t.slots = t.slots[:n]
		clear(t.slots)
	}
	t.n = 0
}

func pairKey(p entity.Pair) uint64 { return uint64(uint32(p.Lo))<<32 | uint64(uint32(p.Hi)) }

// home is the slot a key's probe sequence starts at: a Fibonacci
// multiplicative hash (entity IDs are dense small integers; raw keys
// would cluster) scaled onto [0, len(slots)) by taking the high word of
// hash × len.
func (t *pairTable) home(k uint64) int {
	hi, _ := bits.Mul64(k*0x9E3779B97F4A7C15, uint64(len(t.slots)))
	return int(hi)
}

// testAndSet inserts p and reports whether it was already present.
func (t *pairTable) testAndSet(p entity.Pair) bool {
	k := pairKey(p)
	for i := t.home(k); ; {
		switch t.slots[i] {
		case k:
			return true
		case 0:
			t.slots[i] = k
			t.n++
			if t.n > len(t.slots)-len(t.slots)/4 {
				t.grow()
			}
			return false
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}

// grow doubles the table. Sizing from the schedule makes this the
// exception: it runs when a tree resolves more pairs than predicted.
func (t *pairTable) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := t.home(k)
		for t.slots[i] != 0 {
			if i++; i == len(t.slots) {
				i = 0
			}
		}
		t.slots[i] = k
	}
}
