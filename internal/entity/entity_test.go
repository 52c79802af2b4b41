package entity

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewSchema(t *testing.T) {
	s, err := NewSchema("name", "state")
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.Index("state"); got != 1 {
		t.Errorf("Index(state) = %d, want 1", got)
	}
	if got := s.Index("missing"); got != -1 {
		t.Errorf("Index(missing) = %d, want -1", got)
	}
}

func TestNewSchemaDuplicate(t *testing.T) {
	if _, err := NewSchema("a", "b", "a"); err == nil {
		t.Fatal("NewSchema with duplicate attribute: want error, got nil")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema with duplicates should panic")
		}
	}()
	MustSchema("x", "x")
}

func TestDatasetAppendAndGet(t *testing.T) {
	d := NewDataset(MustSchema("name"))
	e0 := d.Append("alice")
	e1 := d.Append("bob")
	if e0.ID != 0 || e1.ID != 1 {
		t.Fatalf("IDs = %d,%d; want 0,1", e0.ID, e1.ID)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if got := d.Get(1); got.Attr(0) != "bob" {
		t.Errorf("Get(1).Attr(0) = %q, want bob", got.Attr(0))
	}
	if d.Get(-1) != nil || d.Get(2) != nil {
		t.Error("Get out of range should return nil")
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDatasetValidateCatchesSparseIDs(t *testing.T) {
	d := NewDataset(MustSchema("name"))
	d.Entities = append(d.Entities, &Entity{ID: 5, Attrs: []string{"x"}})
	if err := d.Validate(); err == nil {
		t.Fatal("Validate should reject non-dense IDs")
	}
}

func TestEntityAttrOutOfRange(t *testing.T) {
	e := &Entity{ID: 0, Attrs: []string{"a"}}
	if e.Attr(3) != "" {
		t.Error("Attr out of range should be empty")
	}
	if e.Attr(-1) != "" {
		t.Error("Attr(-1) should be empty")
	}
}

func TestEntityClone(t *testing.T) {
	e := &Entity{ID: 7, Attrs: []string{"a", "b"}}
	c := e.Clone()
	c.Attrs[0] = "z"
	if e.Attrs[0] != "a" {
		t.Error("Clone must not share attr storage")
	}
	if c.ID != 7 {
		t.Errorf("Clone ID = %d, want 7", c.ID)
	}
}

func TestMakePairCanonical(t *testing.T) {
	p := MakePair(9, 3)
	if p.Lo != 3 || p.Hi != 9 {
		t.Fatalf("MakePair(9,3) = %v, want <e3,e9>", p)
	}
	if MakePair(3, 9) != p {
		t.Error("MakePair must be symmetric")
	}
}

func TestMakePairSymmetryProperty(t *testing.T) {
	f := func(a, b int32) bool {
		if a == b {
			return true
		}
		return MakePair(ID(a), ID(b)) == MakePair(ID(b), ID(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairSet(t *testing.T) {
	s := PairSet{}
	if !s.Add(MakePair(1, 2)) {
		t.Error("first Add should report true")
	}
	if s.Add(MakePair(2, 1)) {
		t.Error("Add of same unordered pair should report false")
	}
	if !s.Has(MakePair(1, 2)) {
		t.Error("Has should find the pair")
	}
	s.Add(MakePair(0, 5))
	s.Add(MakePair(0, 3))
	sorted := s.Sorted()
	if len(sorted) != 3 {
		t.Fatalf("len = %d, want 3", len(sorted))
	}
	if sorted[0] != MakePair(0, 3) || sorted[1] != MakePair(0, 5) {
		t.Errorf("Sorted order wrong: %v", sorted)
	}
}

func TestPairs(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{{0, 0}, {1, 0}, {2, 1}, {3, 3}, {4, 6}, {10, 45}, {30, 435}, {100000, 4999950000}}
	for _, c := range cases {
		if got := Pairs(c.n); got != c.want {
			t.Errorf("Pairs(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	e := &Entity{ID: 42, Attrs: []string{"John Lopez", "", "HI", "with\ttab and\nnewline"}}
	buf := EncodeBinary(nil, e)
	got, n, err := DecodeBinary(buf)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d bytes, want %d", n, len(buf))
	}
	if !Equal(e, got) {
		t.Errorf("round trip mismatch: %v vs %v", e, got)
	}
}

func TestBinaryCodecConcatenated(t *testing.T) {
	var buf []byte
	want := []*Entity{
		{ID: 0, Attrs: []string{"a"}},
		{ID: 1, Attrs: []string{"bb", "cc"}},
		{ID: 2, Attrs: nil},
	}
	for _, e := range want {
		buf = EncodeBinary(buf, e)
	}
	off := 0
	for i, w := range want {
		e, n, err := DecodeBinary(buf[off:])
		if err != nil {
			t.Fatalf("entity %d: %v", i, err)
		}
		if len(w.Attrs) == 0 {
			if e.ID != w.ID || len(e.Attrs) != 0 {
				t.Errorf("entity %d mismatch: %v", i, e)
			}
		} else if !Equal(w, e) {
			t.Errorf("entity %d mismatch: %v vs %v", i, w, e)
		}
		off += n
	}
	if off != len(buf) {
		t.Errorf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestBinaryCodecTruncated(t *testing.T) {
	e := &Entity{ID: 3, Attrs: []string{"hello", "world"}}
	buf := EncodeBinary(nil, e)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeBinary(buf[:cut]); err == nil {
			// A prefix may decode successfully only if it happens to
			// contain a full record, which cannot happen here because
			// the encoding is a single record.
			t.Errorf("DecodeBinary of %d-byte prefix: want error", cut)
		}
	}
}

// decodeBinaryPerAttr is DecodeBinary as it was before the attribute
// region became one shared string (one string allocation per
// attribute), kept as the oracle for errors, consumed counts and
// values. Its body check is the overflow-safe one: the original
// `uint64(off)+l > len` wrapped for l near 2^64 and then panicked on
// the slice, which no caller could rely on.
func decodeBinaryPerAttr(src []byte) (*Entity, int, error) {
	off := 0
	id, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("entity: truncated binary entity (id)")
	}
	off += n
	cnt, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("entity: truncated binary entity (attr count)")
	}
	off += n
	if cnt > uint64(len(src)) {
		return nil, 0, fmt.Errorf("entity: corrupt attr count %d", cnt)
	}
	attrs := make([]string, cnt)
	for i := range attrs {
		l, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("entity: truncated binary entity (attr %d len)", i)
		}
		off += n
		if l > uint64(len(src)-off) {
			return nil, 0, fmt.Errorf("entity: truncated binary entity (attr %d body)", i)
		}
		attrs[i] = string(src[off : off+int(l)])
		off += int(l)
	}
	return &Entity{ID: ID(id), Attrs: attrs}, off, nil
}

// sameDecode fails unless DecodeBinary and the per-attribute oracle
// agree on src: same error text, or same entity and consumed count.
func sameDecode(t *testing.T, name string, src []byte) {
	t.Helper()
	got, gotN, gotErr := DecodeBinary(src)
	want, wantN, wantErr := decodeBinaryPerAttr(src)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Errorf("%s: error %v, oracle %v", name, gotErr, wantErr)
		return
	}
	if gotN != wantN || !Equal(got, want) {
		t.Errorf("%s: decoded %v consuming %d, oracle %v consuming %d", name, got, gotN, want, wantN)
	}
	sameView(t, name, src)
}

// sameView fails unless a View — reused, as a task reuses its own —
// agrees with DecodeBinary on src: same error text, or same ID,
// attribute bytes and consumed count, nil beyond the arity where
// Entity.Attr says "", and the encoded size EncodedSize predicts.
func sameView(t *testing.T, name string, src []byte) {
	t.Helper()
	var v View
	if _, err := v.Scan(EncodeBinary(nil, &Entity{ID: 41, Attrs: []string{"left", "", "over"}})); err != nil {
		t.Fatal(err)
	}
	gotN, gotErr := v.Scan(src)
	want, wantN, wantErr := DecodeBinary(src)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Errorf("%s: View.Scan error %v, DecodeBinary %v", name, gotErr, wantErr)
		return
	}
	if gotErr != nil {
		return
	}
	if gotN != wantN || v.ID != want.ID || len(v.Attrs) != len(want.Attrs) {
		t.Errorf("%s: view e%d %q consuming %d, DecodeBinary %v consuming %d", name, v.ID, v.Attrs, gotN, want, wantN)
		return
	}
	for i := -1; i <= len(want.Attrs); i++ {
		if got := v.Attr(i); string(got) != want.Attr(i) || (got == nil) != (i < 0 || i == len(want.Attrs)) {
			t.Errorf("%s: view attribute %d is %q, entity's %q", name, i, got, want.Attr(i))
		}
	}
	if re := EncodeBinary(nil, want); EncodedSize(want) != len(re) {
		t.Errorf("%s: EncodedSize %d, encoding is %d bytes", name, EncodedSize(want), len(re))
	}
}

func TestDecodeBinaryMatchesPerAttributeDecoder(t *testing.T) {
	rec := EncodeBinary(nil, &Entity{ID: 300, Attrs: []string{"hello", "", "wörld", strings.Repeat("x", 200)}})
	for cut := 0; cut <= len(rec); cut++ {
		sameDecode(t, fmt.Sprintf("prefix %d", cut), rec[:cut])
	}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	corrupt := map[string][]byte{
		"empty":                  {},
		"no attributes":          uv(7, 0),
		"trailing bytes":         append(append([]byte{}, rec...), 0xde, 0xad),
		"two records":            append(append([]byte{}, rec...), rec...),
		"attr count over length": uv(1, 9),
		"attr count huge":        uv(1, math.MaxUint64),
		"id overflows varint":    {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"len overflows varint":   append(uv(1, 1), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"len past the end":       append(uv(1, 2, 1), 'a', 5, 'b'),
		"len wraps uint64":       append(uv(0, 1, math.MaxUint64), 'a'),
		"len wraps int":          append(uv(0, 1, 1<<63), 'a'),
		"non-canonical varints":  {0x81, 0x00, 0x81, 0x00, 0x82, 0x00, 'o', 'k'},
		"id beyond int32":        uv(1<<40, 1, 1, 'z'),
	}
	for name, src := range corrupt {
		sameDecode(t, name, src)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		src := make([]byte, rng.Intn(24))
		for j := range src {
			// Small values keep counts and lengths plausible, so random
			// inputs reach the attribute loop instead of dying on the count.
			src[j] = byte(rng.Intn(6))
		}
		sameDecode(t, fmt.Sprintf("random %x", src), src)
	}
}

// TestDecodeBinaryAllocations pins the decode cost the Job-2 map and
// reduce paths pay per entity: the entity, its attribute slice and one
// string, whatever the attribute count.
func TestDecodeBinaryAllocations(t *testing.T) {
	for _, attrs := range [][]string{{"a"}, {"ann", "springfield", "il", "555-0101"}, make([]string, 40)} {
		for i := range attrs {
			if attrs[i] == "" {
				attrs[i] = "value"
			}
		}
		rec := EncodeBinary(nil, &Entity{ID: 9, Attrs: attrs})
		got := testing.AllocsPerRun(100, func() {
			if _, _, err := DecodeBinary(rec); err != nil {
				t.Fatal(err)
			}
		})
		if got != 3 {
			t.Errorf("%d attributes: %v allocations per decode, want 3", len(attrs), got)
		}
	}
}

// decodeOne is DecodeAll on the one source src, in DecodeBinary's shape,
// plus the entity's key on attribute `lower`.
func decodeOne(d *Decoder, src []byte, lower int) (*Entity, string, int, error) {
	srcs := [][]byte{src}
	ents, keys, err := d.DecodeAll(nil, nil, srcs, lower)
	if err != nil {
		return nil, "", 0, err
	}
	return ents[0], keys[0], len(src) - len(srcs[0]), nil
}

// sameDecoder fails unless a Decoder, holding on to what it decodes
// (Grow) and in scratch mode (Reset before every call), agrees with
// DecodeBinary on src — error text, entity, consumed count — and on a
// well-formed record decoded around it, keys each entity by
// strings.ToLower of the attribute asked for (in range or not), and
// unless every entity it handed out while holding on still reads the
// same after the decodes that followed, the later of which overflow the
// slab that was announced. The same sources in one DecodeAll call must
// decode the same, or fail with the first failure's error.
func sameDecoder(t *testing.T, name string, src []byte) {
	t.Helper()
	ref := EncodeBinary(nil, &Entity{ID: 41, Attrs: []string{"Kept", "", "ALİVE"}})
	ins := [][]byte{ref, src, src, ref, src}
	var firstErr error
	for _, scratch := range []bool{false, true} {
		var d Decoder
		d.Grow(2)
		var held, snapshot []*Entity
		for i, in := range ins {
			if scratch {
				d.Reset(1)
			}
			lower := i%4 - 1
			got, key, gotN, gotErr := decodeOne(&d, in, lower)
			want, wantN, wantErr := DecodeBinary(in)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s (scratch=%v) decode %d: error %v, DecodeBinary %v", name, scratch, i, gotErr, wantErr)
			}
			if firstErr == nil {
				firstErr = wantErr
			}
			if gotN != wantN || !Equal(got, want) {
				t.Fatalf("%s (scratch=%v) decode %d: %v consuming %d, DecodeBinary %v consuming %d", name, scratch, i, got, gotN, want, wantN)
			}
			if got != nil && key != strings.ToLower(want.Attr(lower)) {
				t.Fatalf("%s (scratch=%v) decode %d: key %q on attribute %d of %v", name, scratch, i, key, lower, want)
			}
			if got != nil && !scratch {
				held, snapshot = append(held, got), append(snapshot, want)
			}
		}
		for i := range held {
			if !Equal(held[i], snapshot[i]) {
				t.Fatalf("%s: entity %d handed out as %v reads %v after later decodes", name, i, snapshot[i], held[i])
			}
		}
	}
	var d Decoder
	srcs := append([][]byte(nil), ins...)
	ents, keys, err := d.DecodeAll(nil, nil, srcs, 2)
	if (err == nil) != (firstErr == nil) || (err != nil && err.Error() != firstErr.Error()) {
		t.Fatalf("%s: DecodeAll of all five: error %v, first DecodeBinary error %v", name, err, firstErr)
	}
	for i := 0; err == nil && i < len(ins); i++ {
		want, n, _ := DecodeBinary(ins[i])
		if !Equal(ents[i], want) || keys[i] != strings.ToLower(want.Attr(2)) || len(srcs[i]) != len(ins[i])-n {
			t.Fatalf("%s: DecodeAll of all five: entity %d is %v keyed %q leaving %d bytes, DecodeBinary %v consuming %d",
				name, i, ents[i], keys[i], len(srcs[i]), want, n)
		}
	}
}

func TestDecoderMatchesDecodeBinary(t *testing.T) {
	rec := EncodeBinary(nil, &Entity{ID: 300, Attrs: []string{"hello", "", "wörld", strings.Repeat("x", 200)}})
	for cut := 0; cut <= len(rec); cut++ {
		sameDecoder(t, fmt.Sprintf("prefix %d", cut), rec[:cut])
	}
	sameDecoder(t, "no attributes", EncodeBinary(nil, &Entity{ID: 7}))
	sameDecoder(t, "ragged", EncodeBinary(nil, &Entity{ID: 8, Attrs: make([]string, 9)}))
	sameDecoder(t, "ẞ and invalid UTF-8", EncodeBinary(nil, &Entity{ID: 9, Attrs: []string{"x", "STRAẞE", "\xffİ\xc3"}}))
	sameDecoder(t, "trailing bytes", append(EncodeBinary(nil, &Entity{ID: 10, Attrs: []string{"a", "B", "c"}}), 1, 2, 3))
}

// TestDecoderSlabs pins what the slabs are for and what a call must not
// cost: a warm Decoder decodes a call's entities, whatever their number
// and size, in one allocation — the string of the keys that lowering
// changes —, none where lowering changes no key (the keys are the
// attributes), a cold one adds its two slabs, and one entity's Attrs
// cannot be appended into the next one's. (Under -race, where sync.Pool
// drops the key scratch a quarter of the time, the counts are held below
// one allocation per two entities more.)
func TestDecoderSlabs(t *testing.T) {
	entity := func(i, size int) *Entity {
		return &Entity{ID: ID(i), Attrs: []string{"Ann", "Springfield", strings.Repeat("i", size), fmt.Sprintf("%02d", i)}}
	}
	encode := func(n, size int) [][]byte {
		recs := make([][]byte, n)
		for i := range recs {
			recs[i] = EncodeBinary(nil, entity(i, size))
		}
		return recs
	}
	var d Decoder
	srcs, ents, keys := make([][]byte, 0, 50), make([]*Entity, 0, 50), make([]string, 0, 50)
	small, large := encode(50, 10), encode(50, 1000)
	for _, c := range []struct {
		name   string
		recs   [][]byte
		lower  int
		copies int
	}{{"small entities", small, 1, 1}, {"large entities", large, 1, 1}, {"lower-case keys", small, 2, 0}, {"no keys", large, -1, 0}} {
		decodeAll := func(d *Decoder) {
			if _, _, err := d.DecodeAll(ents, keys, append(srcs[:0], c.recs...), c.lower); err != nil {
				t.Fatal(err)
			}
		}
		decodeAll(&d) // grows the slabs and the key scratch
		warm := testing.AllocsPerRun(20, func() {
			d.Reset(len(c.recs))
			decodeAll(&d)
		})
		cold := testing.AllocsPerRun(20, func() {
			var cold Decoder
			cold.Grow(len(c.recs))
			decodeAll(&cold)
		})
		for _, run := range []struct {
			name      string
			got, want float64
		}{{"warm", warm, float64(c.copies)}, {"cold", cold, float64(c.copies + 2)}} {
			if raceDetector {
				// A dropped scratch costs a few allocations per call, one per
				// entity is still too many.
				if limit := run.want + float64(len(c.recs)/2); run.got > limit {
					t.Errorf("%s: %d entities: %v allocations %s, at most %v under -race", c.name, len(c.recs), run.got, run.name, limit)
				}
			} else if run.got != run.want {
				t.Errorf("%s: %d entities: %v allocations %s, want %v", c.name, len(c.recs), run.got, run.name, run.want)
			}
		}
	}
	d.Reset(2)
	two, _, err := d.DecodeAll(nil, nil, append(srcs[:0], small[:2]...), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := two[0], two[1]
	a.Attrs = append(a.Attrs, "extra")
	if b.Attrs[0] != "Ann" || b.ID != 1 {
		t.Errorf("appending to one entity's Attrs changed the next: %v", b)
	}
}

// TestDecoderAliasesSource pins that DecodeAll copies no attribute:
// every attribute lies inside the source it was decoded from, and a sort
// key lies inside its source exactly when lowering left it unchanged.
func TestDecoderAliasesSource(t *testing.T) {
	inside := func(s string, src []byte) bool {
		p, base := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(&src[0]))
		return base <= p && p+uintptr(len(s)) <= base+uintptr(len(src))
	}
	attrs := [][]string{
		{"Ann", "springfield", "IL"},
		{"bob", "Shelbyville", ""},
		{"", "İzmir", "ok"},
		{"x", "straße", "STRAẞE"},
	}
	for lower := -1; lower <= 3; lower++ {
		var srcs, orig [][]byte
		for i, a := range attrs {
			src := EncodeBinary(nil, &Entity{ID: ID(i), Attrs: a})
			srcs, orig = append(srcs, src), append(orig, src)
		}
		var d Decoder
		ents, keys, err := d.DecodeAll(nil, nil, srcs, lower)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range ents {
			for k, a := range e.Attrs {
				if a != attrs[i][k] || a != "" && !inside(a, orig[i]) {
					t.Errorf("lower %d: entity %d attribute %d reads %q, inside its source %v", lower, i, k, a, a != "" && inside(a, orig[i]))
				}
			}
			attr := e.Attr(lower)
			if key := keys[i]; key != strings.ToLower(attr) || key != "" && inside(key, orig[i]) != (key == attr) {
				t.Errorf("lower %d: entity %d keyed %q on %q, inside its source %v", lower, i, key, attr, key != "" && inside(key, orig[i]))
			}
		}
	}
}

func TestBinaryCodecQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(id int32, a, b, c string) bool {
		e := &Entity{ID: ID(id), Attrs: []string{a, b, c}}
		got, n, err := DecodeBinary(EncodeBinary(nil, e))
		return err == nil && n > 0 && Equal(e, got)
	}
	cfg := &quick.Config{Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTSVRoundTrip(t *testing.T) {
	d := NewDataset(MustSchema("name", "state", "trailing\r"))
	d.Append("John Lopez", "HI", "")
	d.Append("tabby\tcat", "line\nbreak", "cr\r")
	d.Append("back\\slash", "", "\r\r")
	d.Append("not utf-8: \\\xff\t\xfe", "\\", "\\r")
	var buf bytes.Buffer
	if err := WriteTSV(&buf, d); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatalf("ReadTSV: %v", err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), d.Len())
	}
	for i := range d.Entities {
		if !Equal(d.Entities[i], got.Entities[i]) {
			t.Errorf("entity %d: %v vs %v", i, d.Entities[i], got.Entities[i])
		}
	}
	if !slices.Equal(got.Schema.Attributes, d.Schema.Attributes) {
		t.Errorf("schema %q came back as %q", d.Schema.Attributes, got.Schema.Attributes)
	}
}

func TestReadTSVErrors(t *testing.T) {
	if _, err := ReadTSV(strings.NewReader("")); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := ReadTSV(strings.NewReader("no header\n")); err == nil {
		t.Error("bad header: want error")
	}
	if _, err := ReadTSV(strings.NewReader("#id\ta\tb\n0\tonly-one-field\n")); err == nil {
		t.Error("wrong arity: want error")
	}
}

func TestPairCodec(t *testing.T) {
	p := MakePair(100, 2000000)
	buf := EncodePair(nil, p)
	got, n, err := DecodePair(buf)
	if err != nil || n != len(buf) || got != p {
		t.Fatalf("DecodePair = %v,%d,%v; want %v,%d,nil", got, n, err, p, len(buf))
	}
	if _, _, err := DecodePair(nil); err == nil {
		t.Error("DecodePair(nil): want error")
	}
}

func TestEscapeTSVIdempotentOnPlain(t *testing.T) {
	f := func(s string) bool {
		clean := strings.Map(func(r rune) rune {
			if r == '\t' || r == '\n' || r == '\\' {
				return 'x'
			}
			return r
		}, s)
		return escapeTSV(clean) == clean && unescapeTSV(clean) == clean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEscapeUnescapeRoundTrip(t *testing.T) {
	f := func(s string) bool { return unescapeTSV(escapeTSV(s)) == s }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

var sinkEntity *Entity

// BenchmarkDecodeBinary decodes a persons-shaped record (four short
// attributes) and a publications-shaped one (three, one of them long):
// the per-entity cost of every Job-1 and Job-2 map call and of every
// first contact of an entity with a tree on the reduce side.
func BenchmarkDecodeBinary(b *testing.B) {
	for _, c := range []struct {
		name  string
		attrs []string
	}{
		{"persons", []string{"Maria Gonzalez", "Springfield", "IL", "555-0142"}},
		{"publications", []string{"A parallel progressive approach to entity resolution", strings.Repeat("abstract text ", 25), "ICDE"}},
	} {
		rec := EncodeBinary(nil, &Entity{ID: 123456, Attrs: c.attrs})
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(rec)))
			for i := 0; i < b.N; i++ {
				e, _, err := DecodeBinary(rec)
				if err != nil {
					b.Fatal(err)
				}
				sinkEntity = e
			}
		})
	}
}

// BenchmarkDecoder is BenchmarkDecodeBinary through a Decoder's
// DecodeAll, keys on the name included: a block of "n" arrivals at a
// time, announced and kept as a tree's reduce state keeps them.
func BenchmarkDecoder(b *testing.B) {
	rec := EncodeBinary(nil, &Entity{ID: 123456, Attrs: []string{"Maria Gonzalez", "Springfield", "IL", "555-0142"}})
	for _, n := range []int{1, 4, 100} {
		b.Run(fmt.Sprint("n=", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(rec)))
			var d Decoder
			block := make([][]byte, n)
			var ents []*Entity
			var keys []string
			for i := 0; i < b.N; i += n {
				d.Reset(n)
				for j := range block {
					block[j] = rec
				}
				var err error
				if ents, keys, err = d.DecodeAll(ents[:0], keys[:0], block, 0); err != nil {
					b.Fatal(err)
				}
				sinkEntity = ents[0]
			}
		})
	}
}
