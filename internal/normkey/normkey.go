// Package normkey orders strings through a normalized-key prefix: the 8
// bytes that follow a prefix every key in play shares, big-endian,
// zero-padded, compared as one integer. Where two such ords differ they
// order the keys; where they tie (zero padding makes "ab" and "ab\x00"
// tie) the caller compares the bytes past the shared prefix. The
// in-memory shuffle and the mechanisms' block sort both sort
// pointer-free (ord, index) pairs this way, with one radix sort.
package normkey

import (
	"slices"
	"strings"
	"unicode/utf8"
)

// Ord returns key's normalized prefix past its first skip bytes.
func Ord(key string, skip int) uint64 {
	s := key[skip:]
	if len(s) >= 8 {
		return uint64(s[7]) | uint64(s[6])<<8 | uint64(s[5])<<16 | uint64(s[4])<<24 |
			uint64(s[3])<<32 | uint64(s[2])<<40 | uint64(s[1])<<48 | uint64(s[0])<<56
	}
	var ord uint64
	for i := 0; i < len(s); i++ {
		ord |= uint64(s[i]) << (56 - 8*i)
	}
	return ord
}

// CommonPrefix returns the length of the longest prefix of ref[:n] that
// key shares.
func CommonPrefix(ref, key string, n int) int {
	if len(key) >= n && key[:n] == ref[:n] {
		return n // what nearly every call finds once n has settled
	}
	if len(key) < n {
		n = len(key)
	}
	for i := 0; i < n; i++ {
		if ref[i] != key[i] {
			return i
		}
	}
	return n
}

// Item stands in for element Idx of whatever is being sorted, Ord being
// its key's normalized prefix: 16 pointer-free bytes to move in place
// of the element.
type Item struct {
	Ord uint64
	Idx int32
}

// RadixSort sorts items stably by Ord — a stable LSD radix sort, a byte
// at a time, over only the bytes in which the ords differ at all (four
// of the eight on 18-digit sequence keys that share 14 digits), with
// every byte's counts taken in one pass — using tmp, at least as long,
// as the other buffer. It returns whichever of the two holds the
// result. Items whose ords tie keep their input order.
func RadixSort(items, tmp []Item) []Item {
	if len(items) == 0 {
		return items
	}
	tmp = tmp[:len(items)]
	var counts [8][256]int32
	var differ uint64
	first := items[0].Ord
	for _, it := range items {
		o := it.Ord
		differ |= o ^ first
		counts[0][o&0xff]++
		counts[1][o>>8&0xff]++
		counts[2][o>>16&0xff]++
		counts[3][o>>24&0xff]++
		counts[4][o>>32&0xff]++
		counts[5][o>>40&0xff]++
		counts[6][o>>48&0xff]++
		counts[7][o>>56]++
	}
	for b := range counts {
		shift := 8 * b
		if differ>>shift&0xff == 0 {
			continue
		}
		next := &counts[b]
		sum := int32(0)
		for d, c := range next {
			next[d], sum = sum, sum+c
		}
		for _, it := range items {
			d := it.Ord >> shift & 0xff
			tmp[next[d]] = it
			next[d]++
		}
		items, tmp = tmp, items
	}
	return items
}

// AppendLower appends strings.ToLower(s) to dst, byte for byte: it
// copies ASCII bytes lowered as it goes, and at the first byte that is
// not ASCII it starts over with strings.ToLower itself, which can change
// the byte length (İ, ẞ, invalid UTF-8).
func AppendLower[T string | []byte](dst []byte, s T) []byte {
	at := len(dst)
	dst = slices.Grow(dst, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return append(dst[:at], strings.ToLower(string(s))...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}
