package textsim

import (
	"slices"
	"sync"
)

// gramScratch holds the two sorted-gram buffers one JaccardQGram call
// needs; pooled so the hot path allocates nothing in steady state. The
// string headers are views into the caller's inputs (substringing
// allocates nothing) and are overwritten on next use.
type gramScratch struct {
	a, b []string
}

var gramPool = sync.Pool{New: func() any { return new(gramScratch) }}

// appendGrams appends the q-grams of s (or s itself when shorter than
// q) to dst and returns it.
func appendGrams(dst []string, s string, q int) []string {
	if len(s) < q {
		if len(s) > 0 {
			dst = append(dst, s)
		}
		return dst
	}
	for i := 0; i+q <= len(s); i++ {
		dst = append(dst, s[i:i+q])
	}
	return dst
}

// JaccardQGram returns the Jaccard coefficient of the q-gram multisets
// of a and b: |A ∩ B| / |A ∪ B| with multiset semantics. The kernel
// sorts the two gram lists into pooled scratch and counts matching runs
// — no maps, no per-call allocation.
func JaccardQGram(a, b string, q int) float64 {
	if a == b {
		return 1
	}
	if q <= 0 {
		q = 2
	}
	sc := gramPool.Get().(*gramScratch)
	defer gramPool.Put(sc)
	ga := appendGrams(sc.a[:0], a, q)
	gb := appendGrams(sc.b[:0], b, q)
	sc.a, sc.b = ga, gb // keep grown capacity pooled
	slices.Sort(ga)
	slices.Sort(gb)
	inter, union := 0, 0
	i, j := 0, 0
	for i < len(ga) && j < len(gb) {
		switch {
		case ga[i] < gb[j]:
			g := ga[i]
			for i < len(ga) && ga[i] == g {
				i++
				union++
			}
		case ga[i] > gb[j]:
			g := gb[j]
			for j < len(gb) && gb[j] == g {
				j++
				union++
			}
		default:
			g := ga[i]
			ca, cb := 0, 0
			for i < len(ga) && ga[i] == g {
				i++
				ca++
			}
			for j < len(gb) && gb[j] == g {
				j++
				cb++
			}
			inter += min2(ca, cb)
			union += max2(ca, cb)
		}
	}
	union += len(ga) - i + len(gb) - j
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Exact returns 1 if a == b and 0 otherwise; the "exact matching"
// similarity used on categorical attributes (§VI-A2 uses it for some
// OL-Books attributes).
func Exact(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
