// Package normkey orders strings through a normalized-key prefix: the 8
// bytes that follow a prefix every key in play shares, big-endian,
// zero-padded, compared as one integer. Where two such ords differ they
// order the keys; where they tie (zero padding makes "ab" and "ab\x00"
// tie) the caller compares the bytes past the shared prefix. The
// in-memory shuffle and the mechanisms' block sort both sort
// pointer-free (ord, index) pairs this way.
package normkey

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
