package blocking

import (
	"slices"
	"testing"

	"proger/internal/entity"
)

// FuzzDecodeStat guards the Job-1 statistics codec.
func FuzzDecodeStat(f *testing.F) {
	f.Add(EncodeStat(nil, &BlockStat{
		ID: BlockID{Family: 1, Level: 2, Key: "ab"}, Size: 9, Uncov: 3, ChildKeys: []string{"abc"},
	}))
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, n, err := DecodeStat(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re := EncodeStat(nil, s)
		s2, _, err := DecodeStat(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if s2.ID != s.ID || s2.Size != s.Size || s2.Uncov != s.Uncov || len(s2.ChildKeys) != len(s.ChildKeys) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", s, s2)
		}
	})
}

// sameAnnotatedView fails unless an AnnotatedView — one reused for
// every scan, as a reduce task reuses its own — agrees with
// DecodeAnnotated on src: error text, ID, attribute bytes, key bytes
// and consumed count, with every view a sub-slice of src itself and
// ScanKeys stopping where the entity starts.
func sameAnnotatedView(t *testing.T, src []byte) {
	t.Helper()
	ref := EncodeAnnotated(nil, &Annotated{Ent: &entity.Entity{ID: 41, Attrs: []string{"kept", "alive"}}, MainKeys: []string{"ke", "", "al"}})
	var v AnnotatedView
	for i, in := range [][]byte{ref, src, src, ref, src} {
		gotN, gotErr := v.Scan(in)
		want, wantN, wantErr := DecodeAnnotated(in)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("scan %d: error %v, DecodeAnnotated %v", i, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if gotN != wantN || v.Ent.ID != want.Ent.ID || !sameStrings(v.Ent.Attrs, want.Ent.Attrs) || !sameStrings(v.MainKeys, want.MainKeys) {
			t.Fatalf("scan %d: e%d %q keys %q consuming %d, DecodeAnnotated %v %q consuming %d",
				i, v.Ent.ID, v.Ent.Attrs, v.MainKeys, gotN, want.Ent, want.MainKeys, wantN)
		}
		for _, b := range append(v.MainKeys, v.Ent.Attrs...) {
			if len(b) > 0 && !within(in, b) {
				t.Fatalf("scan %d: view %q is not a sub-slice of the record", i, b)
			}
		}
		if v.Ent.Attr(len(want.Ent.Attrs)) != nil || v.Ent.Attr(-1) != nil {
			t.Fatalf("scan %d: an attribute beyond the arity is not nil", i)
		}
		off, err := v.ScanKeys(in)
		if _, n, _ := entity.DecodeBinary(in[off:]); err != nil || off+n != wantN {
			t.Fatalf("scan %d: ScanKeys stops at %d (%v), the entity is %d of %d bytes", i, off, err, n, wantN)
		}
	}
}

// within reports whether the non-empty b is a sub-slice of in: the
// same memory, not equal bytes.
func within(in, b []byte) bool {
	for o := 0; o+len(b) <= len(in); o++ {
		if &in[o] == &b[0] {
			return true
		}
	}
	return false
}

// sameStrings reports whether views and strs hold the same bytes.
func sameStrings(views [][]byte, strs []string) bool {
	return slices.EqualFunc(views, strs, func(v []byte, s string) bool { return string(v) == s })
}

// FuzzDecodeAnnotated guards the annotated-entity codec and holds the
// in-place view to it.
func FuzzDecodeAnnotated(f *testing.F) {
	f.Add(EncodeAnnotated(nil, &Annotated{
		Ent:      &entity.Entity{ID: 2, Attrs: []string{"x"}},
		MainKeys: []string{"k1", "k2"},
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAnnotatedView(t, data)
		a, n, err := DecodeAnnotated(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re := EncodeAnnotated(nil, a)
		a2, _, err := DecodeAnnotated(re)
		if err != nil || !entity.Equal(a.Ent, a2.Ent) || len(a.MainKeys) != len(a2.MainKeys) {
			t.Fatalf("re-encode mismatch (%v)", err)
		}
	})
}

// FuzzFamilyKeyBytes holds AppendKey — the key derived from an encoded
// record's bytes — to Key at every level of a prefix and a Soundex
// family, and every level's key to the deepest one truncated, which is
// what lets one sort of deepest keys stand for the whole tree.
func FuzzFamilyKeyBytes(f *testing.F) {
	for _, v := range []string{
		"", "a", "John Lopez", "JOHN", "x1-Y2_z3",
		"\xff", "ab\xffCD", "AB\xc3", "\xc3\x28xyz", // invalid UTF-8
		"İstanbul", "aİb", "abcİ", "AKelvin", "K", "ẞtraße", // lower-casing changes the byte length
		" Robert", "Robert ", "  Ro bert  ", "\t Rupert\n", " Lee Gamma", "a  b", "\v\f x y",
	} {
		f.Add([]byte(v), uint8(2), uint8(2), uint8(4))
	}
	f.Add([]byte("short"), uint8(40), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, v []byte, first, step1, step2 uint8) {
		lens := []int{1 + int(first%48)}
		for _, s := range []uint8{step1, step2} {
			if s%8 > 0 {
				lens = append(lens, lens[len(lens)-1]+int(s%8))
			}
		}
		e := &entity.Entity{Attrs: []string{string(v)}}
		for _, kind := range []KeyKind{KeyPrefix, KeySoundex} {
			fam := &Family{Name: "F", Attr: 0, PrefixLens: lens, Index: 1, Kind: kind}
			deepest := fam.AppendKey(nil, v, fam.Levels())
			for level := 1; level <= fam.Levels(); level++ {
				want := fam.Key(e, level)
				if got := fam.AppendKey([]byte("kept"), v, level); string(got) != "kept"+want {
					t.Fatalf("%v %v: AppendKey(%q, %d) = %q, Key %q", kind, lens, v, level, got[4:], want)
				}
				if got := truncate(deepest, lens[level-1]); string(got) != want {
					t.Fatalf("%v %v: deepest key %q of %q truncated for level %d is %q, Key %q", kind, lens, deepest, v, level, got, want)
				}
			}
		}
	})
}
