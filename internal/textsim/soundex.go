package textsim

import (
	"bytes"
	"strings"
)

// Soundex returns the classic 4-character Soundex code of s (letter +
// three digits, zero-padded), the phonetic key used by merge/purge-era
// blocking functions [Hernández & Stolfo 1995]. Non-ASCII-letter input
// characters are ignored; an empty or letterless input yields "0000".
func Soundex(s string) string {
	code := soundexCode(s)
	return string(code[:])
}

// soundexCode is Soundex on a string or on its bytes.
func soundexCode[T string | []byte](s T) [4]byte {
	code := [4]byte{'0', '0', '0', '0'}
	n := 0
	var prev byte
	for i := 0; i < len(s) && n < 4; i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c < 'A' || c > 'Z' {
			prev = 0
			continue
		}
		d := soundexDigit(c)
		if n == 0 {
			code[0] = c
			n = 1
			prev = d
			continue
		}
		// H and W are transparent: the previous consonant group
		// continues through them.
		if c == 'H' || c == 'W' {
			continue
		}
		if d == 0 {
			prev = 0
			continue
		}
		if d != prev {
			code[n] = '0' + d
			n++
		}
		prev = d
	}
	return code
}

// soundexDigit maps a letter to its Soundex group (0 for vowels and
// the transparent letters).
func soundexDigit(c byte) byte {
	switch c {
	case 'B', 'F', 'P', 'V':
		return 1
	case 'C', 'G', 'J', 'K', 'Q', 'S', 'X', 'Z':
		return 2
	case 'D', 'T':
		return 3
	case 'L':
		return 4
	case 'M', 'N':
		return 5
	case 'R':
		return 6
	default:
		return 0
	}
}

// SoundexOfFirstWord returns the Soundex code of the first
// whitespace-separated token of s — the usual blocking key for
// name-like attributes.
func SoundexOfFirstWord(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	return Soundex(s)
}

// AppendSoundexOfFirstWord appends SoundexOfFirstWord(string(s)) to dst
// without building either string.
func AppendSoundexOfFirstWord(dst, s []byte) []byte {
	s = bytes.TrimSpace(s)
	if i := bytes.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	code := soundexCode(s)
	return append(dst, code[:]...)
}
