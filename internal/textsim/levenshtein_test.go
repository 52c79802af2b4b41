package textsim

import (
	"math/rand"
	"testing"
)

// checkBudgeted asserts the kernel's contract for one (a, b, budget):
// the exact distance when it is within the budget, budget+1 otherwise —
// in both argument orders.
func checkBudgeted(t *testing.T, a, b string, budget, want int) {
	t.Helper()
	expect := want
	if want > budget {
		expect = budget + 1
	}
	if got := editDistance(a, b, budget); got != expect {
		t.Fatalf("editDistance(len %d, len %d, budget %d) = %d, want %d (true distance %d)\na=%q\nb=%q",
			len(a), len(b), budget, got, expect, want, a, b)
	}
	if got := editDistance(b, a, budget); got != expect {
		t.Fatalf("editDistance(len %d, len %d, budget %d) = %d, want %d (true distance %d, swapped)\na=%q\nb=%q",
			len(b), len(a), budget, got, expect, want, b, a)
	}
}

// mutate applies edits random single-byte insertions, deletions and
// substitutions to s, drawing new bytes from the first sigma letters.
func mutate(rng *rand.Rand, s string, edits, sigma int) string {
	b := []byte(s)
	for e := 0; e < edits; e++ {
		c := byte('a' + rng.Intn(sigma))
		switch op := rng.Intn(3); {
		case op == 0 || len(b) == 0: // insert
			i := rng.Intn(len(b) + 1)
			b = append(b[:i], append([]byte{c}, b[i:]...)...)
		case op == 1: // delete
			i := rng.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		default: // substitute
			b[rng.Intn(len(b))] = c
		}
	}
	return string(b)
}

// TestEditDistanceMatchesDP is the differential test of the
// bit-parallel kernel against the row DP: independent random strings
// and near-duplicates, alphabets from unary to 26 letters, lengths on
// both sides of every word boundary the kernel branches on.
func TestEditDistanceMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	lengths := []int{0, 1, 63, 64, 65, 127, 128, 129, 350, 351}
	randStr := func(n, sigma int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(sigma))
		}
		return string(b)
	}
	check := func(a, b string) {
		want := levenshteinDP(a, b)
		if got := Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein = %d, want %d\na=%q\nb=%q", got, want, a, b)
		}
		maxLen := max(len(a), len(b))
		for _, budget := range []int{0, 1, 2, 5, 17, 60, len(a), len(b), maxLen, maxLen + 100} {
			checkBudgeted(t, a, b, budget, want)
		}
	}
	for _, sigma := range []int{1, 2, 4, 26} {
		for _, la := range lengths {
			a := randStr(la, sigma)
			for _, lb := range lengths {
				check(a, randStr(lb, sigma))
			}
			for _, edits := range []int{0, 1, 2, 3, 6, 18, 61} {
				check(a, mutate(rng, a, edits, sigma))
			}
		}
	}
}

// FuzzEditDistance checks the same contract on arbitrary bytes: the
// kernel reads whatever bytes an attribute holds, and the row DP is its
// oracle.
func FuzzEditDistance(f *testing.F) {
	long := make([]byte, 129)
	for i := range long {
		long[i] = byte(i)
	}
	f.Add([]byte(""), []byte(""), uint8(0))
	f.Add([]byte(""), []byte("abc"), uint8(2))
	f.Add([]byte("kitten"), []byte("sitting"), uint8(3))
	f.Add([]byte("a\x00b\xff"), []byte("a\x00\x80b"), uint8(1))
	f.Add(long[:63], long[1:64], uint8(2))
	f.Add(long[:64], long[:65], uint8(0))
	f.Add(long[:65], long[:64], uint8(1))
	f.Add(long[:128], long[1:129], uint8(5))
	f.Add(long, long[:127], uint8(255))
	f.Fuzz(func(t *testing.T, a, b []byte, budget uint8) {
		sa, sb := string(a), string(b)
		checkBudgeted(t, sa, sb, int(budget), levenshteinDP(sa, sb))
	})
}
