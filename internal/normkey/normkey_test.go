package normkey

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// FuzzAppendLower holds AppendLower to strings.ToLower byte for byte, on
// strings and on byte slices, behind whatever dst already holds — which
// it must not touch — including where lowering changes the byte length:
// İ (2 bytes) lowers to 3, ẞ (3) to ß (2), and invalid UTF-8 becomes
// U+FFFD.
func FuzzAppendLower(f *testing.F) {
	for _, s := range []string{"", "abc", "Hello, WORLD 42", "İstanbul", "STRAẞE", "a\xffB", "AB\xc3", "ÀÉÎ", "\x00Z"} {
		f.Add([]byte("pre"), s)
	}
	f.Fuzz(func(t *testing.T, dst []byte, s string) {
		want := append(slices.Clone(dst), strings.ToLower(s)...)
		for _, got := range [][]byte{
			AppendLower(slices.Clip(dst), s),
			AppendLower(slices.Clip(dst), []byte(s)),
			AppendLower(append(slices.Clone(dst), make([]byte, len(s)+8)...)[:len(dst)], s),
		} {
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendLower(%q, %q) = %q, want %q", dst, s, got, want)
			}
		}
	})
}

// TestRadixSortIsStableByOrd: over random ords that share bytes, tie
// and differ in every position, RadixSort returns what a stable sort by
// Ord returns, in whichever of its two buffers.
func TestRadixSortIsStableByOrd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(300)
		mask := rng.Uint64() | 0xff // some bytes never differ
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Ord: rng.Uint64() & mask & (uint64(rng.Intn(4)) * 0x0101010101010101), Idx: int32(i)}
		}
		want := slices.Clone(items)
		slices.SortStableFunc(want, func(a, b Item) int {
			switch {
			case a.Ord < b.Ord:
				return -1
			case a.Ord > b.Ord:
				return 1
			}
			return 0
		})
		if got := RadixSort(items, make([]Item, n)); !slices.Equal(got, want) {
			t.Fatalf("n=%d: %v, want %v", n, got, want)
		}
	}
}

func TestOrd(t *testing.T) {
	for _, tc := range []struct {
		key  string
		skip int
		want uint64
	}{
		{"", 0, 0},
		{"a", 0, 0x61 << 56},
		{"ab", 0, 0x6162 << 48},
		{"ab\x00", 0, 0x6162 << 48}, // zero padding: ties with "ab"
		{"abcdefgh", 0, 0x6162636465666768},
		{"abcdefghi", 0, 0x6162636465666768}, // bytes past the eighth are not seen
		{"xyabcdefghi", 2, 0x6162636465666768},
		{"xyab", 2, 0x6162 << 48},
		{"xy", 2, 0},
		{"\xff\xff\xff\xff\xff\xff\xff\xff", 0, ^uint64(0)},
	} {
		if got := Ord(tc.key, tc.skip); got != tc.want {
			t.Errorf("Ord(%q, %d) = %#x, want %#x", tc.key, tc.skip, got, tc.want)
		}
	}
}

// naiveCommonPrefix is the loop CommonPrefix is a fast path around.
func naiveCommonPrefix(ref, key string, n int) int {
	i := 0
	for i < n && i < len(key) && ref[i] == key[i] {
		i++
	}
	return i
}

func TestCommonPrefix(t *testing.T) {
	for _, tc := range []struct {
		ref, key string
		n, want  int
	}{
		{"", "", 0, 0},
		{"abc", "abd", 3, 2},
		{"abc", "abc", 3, 3},
		{"abc", "abcdef", 3, 3},
		{"abcdef", "abc", 6, 3}, // key shorter than the limit
		{"abcdef", "abcdef", 4, 4},
		{"abcdef", "abxdef", 4, 2},
		{"abcdef", "xbcdef", 6, 0},
		{"abcdef", "", 6, 0},
		{"abcdef", "abcdef", 0, 0},
	} {
		if got := CommonPrefix(tc.ref, tc.key, tc.n); got != tc.want {
			t.Errorf("CommonPrefix(%q, %q, %d) = %d, want %d", tc.ref, tc.key, tc.n, got, tc.want)
		}
	}
}

// TestOrdFollowsKeyOrder is the property both sorts rest on: among keys
// that share their first skip bytes, a < b implies Ord(a) <= Ord(b), a
// difference in ords orders the keys, and a tie means the keys agree on
// the 8 bytes past skip up to zero padding. CommonPrefix, which finds
// skip, is held to the naive loop on the same keys, at every limit.
func TestOrdFollowsKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// A small alphabet that includes 0x00 and 0xff, so that padding
	// ties and the top byte are hit.
	alphabet := []byte{0, 1, 'a', 'b', 0xff}
	randKey := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for iter := 0; iter < 20000; iter++ {
		prefix := randKey(rng.Intn(12))
		a, b := prefix+randKey(rng.Intn(12)), prefix+randKey(rng.Intn(12))
		for n := 0; n <= len(a); n++ {
			if got, want := CommonPrefix(a, b, n), naiveCommonPrefix(a, b, n); got != want {
				t.Fatalf("CommonPrefix(%q, %q, %d) = %d, want %d", a, b, n, got, want)
			}
		}
		skip := rng.Intn(len(prefix) + 1)
		oa, ob := Ord(a, skip), Ord(b, skip)
		switch {
		case a < b && oa > ob, a > b && oa < ob:
			t.Fatalf("keys %q and %q past %d bytes: ords %#x and %#x order them the other way", a, b, skip, oa, ob)
		case a == b && oa != ob:
			t.Fatalf("equal keys %q, different ords %#x and %#x", a, oa, ob)
		case oa == ob:
			// A tie may hide only zero padding or bytes past the eighth.
			pad := func(s string) string { return (s[skip:] + "\x00\x00\x00\x00\x00\x00\x00\x00")[:8] }
			if pad(a) != pad(b) {
				t.Fatalf("keys %q and %q past %d bytes tie at %#x", a, b, skip, oa)
			}
		}
	}
}
