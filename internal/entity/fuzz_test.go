package entity

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeBinary guards the binary entity codec against panics,
// holds it to the per-attribute oracle (same error, same entity, same
// consumed count), holds a Decoder — keeping and scratch — to it in
// turn, and checks encode∘decode is the identity on whatever decodes
// cleanly.
func FuzzDecodeBinary(f *testing.F) {
	f.Add(EncodeBinary(nil, &Entity{ID: 1, Attrs: []string{"a", "bb"}}))
	f.Add(EncodeBinary(nil, &Entity{ID: 0}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(append(binary.AppendUvarint([]byte{0, 1}, math.MaxUint64), 'a'))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, "fuzz input", data)
		sameDecoder(t, "fuzz input", data)
		e, n, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re := EncodeBinary(nil, e)
		e2, _, err := DecodeBinary(re)
		if err != nil || !Equal(e, e2) {
			t.Fatalf("re-encode mismatch: %v vs %v (%v)", e, e2, err)
		}
	})
}

// FuzzDecodePair guards the pair codec.
func FuzzDecodePair(f *testing.F) {
	f.Add(EncodePair(nil, MakePair(3, 9)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, n, err := DecodePair(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re := EncodePair(nil, p)
		p2, _, err := DecodePair(re)
		if err != nil || p2 != p {
			t.Fatalf("re-encode mismatch: %v vs %v", p, p2)
		}
	})
}

// FuzzReadTSV guards the TSV reader against panics on arbitrary input,
// and checks write∘read round trips for inputs that parse.
func FuzzReadTSV(f *testing.F) {
	f.Add("#id\ta\tb\n0\tx\ty\n")
	f.Add("#id\ta\n0\tesc\\taped\n")
	f.Add("")
	f.Add("#id\t\n")
	f.Fuzz(func(t *testing.T, input string) {
		ds, err := ReadTSV(bytes.NewReader([]byte(input)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, ds); err != nil {
			t.Fatalf("WriteTSV of parsed dataset: %v", err)
		}
		back, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if back.Len() != ds.Len() {
			t.Fatalf("round trip lost rows: %d vs %d", back.Len(), ds.Len())
		}
		for i := range ds.Entities {
			if !Equal(ds.Entities[i], back.Entities[i]) {
				t.Fatalf("row %d differs", i)
			}
		}
	})
}
