// Package dedup implements redundancy-free resolution (§V of the
// paper): the per-tree dominance values, the List(eᵢ, X) dominance
// lists (Job 2's reduce tasks derive them from the per-family lists of
// trees its map output carries), and the SHOULD-RESOLVE check (Fig. 7)
// that reduce tasks run before resolving each candidate pair.
// It also provides the smallest-key rule of Kolb et al. [14] that the
// Basic baseline uses (§II-C, limitation 4).
package dedup

import (
	"encoding/binary"
	"fmt"
)

// Dom is a tree dominance value. Every tree of the progressive schedule
// gets a unique non-negative Dom; per-entity sentinel values (for
// entities whose main block was pruned away) are negative and unique
// per entity, so they never compare equal across entities.
type Dom = int32

// SentinelFor returns the unique negative dominance value used when an
// entity has no tree under some family (its main block was a pruned
// singleton). Two different entities always get different sentinels, so
// the equality tests of SHOULD-RESOLVE can never spuriously skip.
func SentinelFor(entityID int32) Dom { return -entityID - 1 }

// List is the dominance list List(eᵢ, X) of §V: one value per main
// blocking function (in dominance order), plus an optional (n+1)st
// value naming the highest split-off descendant tree containing the
// entity. The j-th value (0-based j = Index−1) is:
//
//   - Dom(TreeOf(X)) when j is the emitted block's own family, or
//   - Dom(T(Y¹ₕ)) — the main tree of family j containing the entity —
//     otherwise.
type List []Dom

// ShouldResolve is the responsibility check of Fig. 7, verbatim: when
// resolving a block of the family whose dominance Index is `index`
// (1-based) under n main blocking functions, the pair (ek, el) with
// dominance lists a and b must be resolved here iff
//
//   - no more-dominating family places both entities in the same tree
//     (positions 1..index−1 differ), and
//   - the pair does not fall inside a common split-off descendant tree
//     (position n+1, when both lists have one).
func ShouldResolve(a, b List, index, n int) bool {
	for m := 0; m < index-1; m++ {
		if a[m] == b[m] {
			return false
		}
	}
	if len(a) > n && len(b) > n {
		if a[n] == b[n] {
			return false
		}
	}
	return true
}

// Encode appends the binary form of the list to dst: a count followed
// by zig-zag varints (doms can be negative sentinels).
func Encode(dst []byte, l List) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(l)))
	for _, d := range l {
		dst = binary.AppendVarint(dst, int64(d))
	}
	return dst
}

// Decode reads one list, returning bytes consumed.
func Decode(src []byte) (List, int, error) {
	cnt, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, 0, fmt.Errorf("dedup: truncated list (count)")
	}
	off := n
	if cnt > uint64(len(src)) {
		return nil, 0, fmt.Errorf("dedup: corrupt list count %d", cnt)
	}
	l := make(List, cnt)
	for i := range l {
		v, n := binary.Varint(src[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("dedup: truncated list (value %d)", i)
		}
		l[i] = Dom(v)
		off += n
	}
	return l, off, nil
}

// SmallestKeyResponsible implements the redundancy-elimination rule of
// Kolb et al. [14] used by the Basic baseline: a pair is resolved only
// in the common block whose blocking key value is smallest (ties broken
// by family position, matching the paper's Fig. 2 example where
// Y¹₂ ("hi") beats X¹₁ ("jo")). aKeys and bKeys are the two entities'
// annotated main keys in family order; famIdx/key identify the block
// asking.
func SmallestKeyResponsible(aKeys, bKeys []string, famIdx int, key string) bool {
	minFam, minKey, found := -1, "", false
	for j := range aKeys {
		if aKeys[j] != bKeys[j] {
			continue
		}
		if !found || aKeys[j] < minKey || (aKeys[j] == minKey && j < minFam) {
			minFam, minKey, found = j, aKeys[j], true
		}
	}
	if !found {
		return false
	}
	return minFam == famIdx && minKey == key
}
