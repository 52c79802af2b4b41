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

// sameAnnotatedDecoder fails unless an AnnotatedDecoder — announced
// for two entities and overflowing, and in scratch mode — agrees with
// DecodeAnnotated on src (error text, entity, keys, consumed count), and
// unless what it handed out while holding on still reads the same after
// the decodes that followed.
func sameAnnotatedDecoder(t *testing.T, src []byte) {
	t.Helper()
	ref := EncodeAnnotated(nil, &Annotated{Ent: &entity.Entity{ID: 41, Attrs: []string{"kept", "alive"}}, MainKeys: []string{"ke", "", "al"}})
	for _, scratch := range []bool{false, true} {
		var d AnnotatedDecoder
		d.Reset(2)
		var held, snapshot []*Annotated
		for i, in := range [][]byte{ref, src, src, ref, src} {
			if scratch {
				d.Reset(1)
			}
			e, keys, gotN, gotErr := d.Decode(in)
			want, wantN, wantErr := DecodeAnnotated(in)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("scratch=%v decode %d: error %v, DecodeAnnotated %v", scratch, i, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if gotN != wantN || !entity.Equal(e, want.Ent) || !slices.Equal(keys, want.MainKeys) {
				t.Fatalf("scratch=%v decode %d: %v %q consuming %d, DecodeAnnotated %v %q consuming %d",
					scratch, i, e, keys, gotN, want.Ent, want.MainKeys, wantN)
			}
			if !scratch {
				held, snapshot = append(held, &Annotated{Ent: e, MainKeys: keys}), append(snapshot, want)
			}
		}
		for i := range held {
			if !entity.Equal(held[i].Ent, snapshot[i].Ent) || !slices.Equal(held[i].MainKeys, snapshot[i].MainKeys) {
				t.Fatalf("annotated entity %d reads %v %q after later decodes, was %v %q",
					i, held[i].Ent, held[i].MainKeys, snapshot[i].Ent, snapshot[i].MainKeys)
			}
		}
	}
}

// FuzzDecodeAnnotated guards the annotated-entity codec and holds the
// slab decoder to it.
func FuzzDecodeAnnotated(f *testing.F) {
	f.Add(EncodeAnnotated(nil, &Annotated{
		Ent:      &entity.Entity{ID: 2, Attrs: []string{"x"}},
		MainKeys: []string{"k1", "k2"},
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAnnotatedDecoder(t, data)
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
