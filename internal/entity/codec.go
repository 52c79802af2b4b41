package entity

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strings"
	"sync"
	"unsafe"

	"proger/internal/normkey"
)

// This file implements the serialization formats used by the pipeline:
//
//   - a compact length-prefixed binary codec used for MapReduce shuffle
//     values (EncodeBinary / DecodeBinary), and
//   - a tab-separated text format for datasets on disk (WriteTSV /
//     ReadTSV), with a header line naming the schema.

// EncodeBinary appends the binary encoding of e to dst and returns the
// extended slice. Layout: varint ID, varint attr count, then per
// attribute varint length + bytes.
func EncodeBinary(dst []byte, e *Entity) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.ID))
	dst = binary.AppendUvarint(dst, uint64(len(e.Attrs)))
	for _, a := range e.Attrs {
		dst = binary.AppendUvarint(dst, uint64(len(a)))
		dst = append(dst, a...)
	}
	return dst
}

// EncodedSize returns len(EncodeBinary(nil, e)), for a caller that
// sizes one buffer for many entities.
func EncodedSize(e *Entity) int {
	n := uvarintLen(uint64(e.ID)) + uvarintLen(uint64(len(e.Attrs)))
	for _, a := range e.Attrs {
		n += uvarintLen(uint64(len(a))) + len(a)
	}
	return n
}

// uvarintLen returns the number of bytes binary.AppendUvarint writes
// for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// scanBinary validates the encoded entity at the head of src — every
// length, before anything is copied — and returns its ID, attribute
// count, and the bounds src[start:end] of its attribute region (length
// prefixes included); end is the number of bytes the entity occupies.
// With views non-nil it also appends each attribute's bytes, as a
// sub-slice of src, to *views (which an error leaves half filled).
func scanBinary(src []byte, views *[][]byte) (id uint64, cnt, start, end int, err error) {
	id, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("entity: truncated binary entity (id)")
	}
	off := n
	c, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("entity: truncated binary entity (attr count)")
	}
	off += n
	if c > uint64(len(src)) { // cheap sanity bound: each attr needs ≥1 byte of header
		return 0, 0, 0, 0, fmt.Errorf("entity: corrupt attr count %d", c)
	}
	start = off
	for i := 0; i < int(c); i++ {
		l, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return 0, 0, 0, 0, fmt.Errorf("entity: truncated binary entity (attr %d len)", i)
		}
		off += n
		if l > uint64(len(src)-off) {
			return 0, 0, 0, 0, fmt.Errorf("entity: truncated binary entity (attr %d body)", i)
		}
		if views != nil {
			*views = append(*views, src[off:off+int(l):off+int(l)])
		}
		off += int(l)
	}
	return id, int(c), start, off, nil
}

// CutStrings copies region — len(dst) strings, each behind its varint
// length, already validated — into ONE string and fills dst with slices
// of it: a decoded entity's attributes (or an annotation's keys) cost
// one allocation whatever their count — and holding on to any one of
// them keeps the bytes of all of them alive.
func CutStrings(dst []string, region []byte) {
	s := string(region)
	pos := 0
	for i := range dst {
		l, n := binary.Uvarint(region[pos:])
		pos += n
		dst[i] = s[pos : pos+int(l)]
		pos += int(l)
	}
}

// View is an encoded entity read in place: Scan validates it exactly as
// DecodeBinary does and leaves the ID and the attributes as sub-slices
// of the encoding, so a caller that reads a key or two of a record pays
// for no string. A View is scratch — the next Scan overwrites it — and
// its attributes are only as valid, and as read-only, as the bytes they
// were scanned from. The zero View is ready to use.
type View struct {
	ID    ID
	Attrs [][]byte
}

// Scan points v at the encoded entity at the head of src and returns
// the number of bytes it occupies; the errors are DecodeBinary's.
func (v *View) Scan(src []byte) (int, error) {
	v.Attrs = v.Attrs[:0]
	id, _, _, end, err := scanBinary(src, &v.Attrs)
	v.ID = ID(id)
	return end, err
}

// Attr returns the bytes of attribute i, or nil if the entity has no
// value at that position, as Entity.Attr returns "".
func (v *View) Attr(i int) []byte {
	if i < 0 || i >= len(v.Attrs) {
		return nil
	}
	return v.Attrs[i]
}

// DecodeBinary decodes one entity from src, returning the entity and
// the number of bytes consumed, in three allocations: the entity, its
// attribute slice and one string (CutStrings). It is the one-off form; a
// caller that decodes many entities uses a Decoder.
func DecodeBinary(src []byte) (*Entity, int, error) {
	id, cnt, start, end, err := scanBinary(src, nil)
	if err != nil {
		return nil, 0, err
	}
	attrs := make([]string, cnt)
	CutStrings(attrs, src[start:end])
	return &Entity{ID: ID(id), Attrs: attrs}, end, nil
}

// Decoder is DecodeBinary for a caller that decodes many entities at a
// time, without copying them: the Entity structs and attribute slices it
// hands out are cut from slabs, and each attribute is a view of its
// source's bytes, so a source must not be written while an entity
// decoded from it is in use — as a mapreduce.Reducer's values never are.
// The caller says how many are coming — a reduce call's value count, a
// tree's entity count — and pays for exactly that many: Grow(n) before n
// entities that must stay valid beside the earlier ones, Reset(n) when
// the earlier ones are done with and their storage can be reused.
// Holding one entity keeps its source and its whole slab alive, so a
// Decoder's entities should die together. The zero Decoder is ready to
// use.
type Decoder struct {
	ents  []Entity
	attrs []string
}

// keyScratch is where DecodeAll lowers keys before they are a string,
// all pointer-free: the lowered bytes of the keys that lowering changes,
// and where each one's key goes in keys and ends in the bytes.
type keyScratch struct {
	lowered []byte
	changed []struct{ key, end int }
}

// keyScratches lends DecodeAll its scratch for the length of a call: a
// Decoder is held per tree, by the hundred, and scratch of its own would
// stay with it at the size of its largest call.
var keyScratches = sync.Pool{New: func() any { return new(keyScratch) }}

// Grow makes room for n more entities. Those handed out stay valid:
// unless the slab in use has room for all n, a new one of exactly n is
// started and the old one is left to its entities.
func (d *Decoder) Grow(n int) {
	if cap(d.ents)-len(d.ents) < n {
		d.ents = make([]Entity, 0, n)
	}
}

// Reset invalidates every entity the Decoder has handed out — their
// storage is zeroed, so an idle Decoder keeps no source alive, and
// reused — and makes room for n more.
func (d *Decoder) Reset(n int) {
	clear(d.ents)
	clear(d.attrs)
	d.ents, d.attrs = d.ents[:0], d.attrs[:0]
	d.Grow(n)
}

// DecodeAll decodes the entity at the head of each of srcs, in order,
// validating each exactly as DecodeBinary does and failing with its
// error. It appends each entity to ents and strings.ToLower of the
// entity's attribute `lower` (Entity.Attr's value, so "" where there is
// none) to keys, and leaves srcs[i] holding the bytes that follow the
// i-th entity. Each source is validated once. The attributes read their
// sources in place; a key that lowering leaves as it is, is the
// attribute itself, as strings.ToLower returns it, and the keys that
// lowering changes are copied into one string per call. Past the count
// it was told to expect the Decoder carries on in small slabs of its own
// sizing. After an error, what it appended to ents and keys is not to be
// used.
func (d *Decoder) DecodeAll(ents []*Entity, keys []string, srcs [][]byte, lower int) ([]*Entity, []string, error) {
	ks := keyScratches.Get().(*keyScratch)
	defer keyScratches.Put(ks)
	kb, changed := ks.lowered[:0], ks.changed[:0]
	for i, src := range srcs {
		id, cnt, start, end, err := scanBinary(src, nil)
		if err != nil {
			return ents, keys, err
		}
		if len(d.ents) == cap(d.ents) {
			d.Grow(16)
		}
		if cap(d.attrs)-len(d.attrs) < cnt {
			// Room for as many entities as the entity slab holds, at this
			// one's attribute count: a Decoder reused for entities of one
			// shape takes a new attribute slab with a new entity slab only.
			d.attrs = make([]string, 0, cnt*cap(d.ents))
		}
		// The row's capacity is clipped so that appending to one entity's
		// Attrs cannot write into the next one's.
		attrs := d.attrs[len(d.attrs) : len(d.attrs)+cnt : len(d.attrs)+cnt]
		d.attrs = d.attrs[:len(d.attrs)+cnt]
		for k, pos := 0, start; k < cnt; k++ {
			l, n := binary.Uvarint(src[pos:])
			if pos += n; l > 0 {
				attrs[k] = unsafe.String(&src[pos], int(l))
			}
			pos += int(l)
		}
		d.ents = append(d.ents, Entity{ID: ID(id), Attrs: attrs})
		ents = append(ents, &d.ents[len(d.ents)-1])
		key := ""
		if 0 <= lower && lower < cnt {
			at := len(kb)
			if key, kb = attrs[lower], normkey.AppendLower(kb, attrs[lower]); string(kb[at:]) == key {
				kb = kb[:at]
			} else {
				changed = append(changed, struct{ key, end int }{len(keys), len(kb)})
			}
		}
		keys = append(keys, key)
		srcs[i] = src[end:]
	}
	if len(changed) > 0 {
		lowered, at := string(kb), 0
		for _, c := range changed {
			keys[c.key], at = lowered[at:c.end], c.end
		}
	}
	ks.lowered, ks.changed = kb[:0], changed[:0]
	return ents, keys, nil
}

// WriteTSV writes the dataset as tab-separated text: a header line
// "#id<TAB>attr1<TAB>attr2..." followed by one line per entity.
// Tab, newline and carriage-return bytes inside names and values are
// escaped as \t, \n, \r, and backslashes as \\; every other byte is
// written as it is.
func WriteTSV(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	names := make([]string, len(d.Schema.Attributes))
	for i, name := range d.Schema.Attributes {
		names[i] = escapeTSV(name)
	}
	if _, err := fmt.Fprintf(bw, "#id\t%s\n", strings.Join(names, "\t")); err != nil {
		return err
	}
	for _, e := range d.Entities {
		if _, err := fmt.Fprintf(bw, "%d", e.ID); err != nil {
			return err
		}
		for i := 0; i < d.Schema.Len(); i++ {
			if _, err := bw.WriteString("\t"); err != nil {
				return err
			}
			if _, err := bw.WriteString(escapeTSV(e.Attr(i))); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses a dataset written by WriteTSV. IDs in the file are
// ignored; dense IDs are reassigned in line order (the pipeline
// requires dense IDs, and line order is the canonical order).
func ReadTSV(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("entity: empty TSV input")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, "#id\t") {
		return nil, fmt.Errorf("entity: TSV header must start with %q, got %q", "#id\t", firstN(header, 32))
	}
	attrNames := strings.Split(header[len("#id\t"):], "\t")
	for i, name := range attrNames {
		attrNames[i] = unescapeTSV(name)
	}
	schema, err := NewSchema(attrNames...)
	if err != nil {
		return nil, err
	}
	d := NewDataset(schema)
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != schema.Len()+1 {
			return nil, fmt.Errorf("entity: line %d has %d fields, want %d", line, len(fields), schema.Len()+1)
		}
		attrs := make([]string, schema.Len())
		for i := range attrs {
			attrs[i] = unescapeTSV(fields[i+1])
		}
		d.Append(attrs...)
	}
	return d, sc.Err()
}

func escapeTSV(s string) string {
	if !strings.ContainsAny(s, "\t\n\r\\") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\t':
			b.WriteString(`\t`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unescapeTSV(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	esc := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if esc {
			switch c {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte('\\')
				b.WriteByte(c)
			}
			esc = false
			continue
		}
		if c == '\\' {
			esc = true
			continue
		}
		b.WriteByte(c)
	}
	if esc {
		b.WriteByte('\\')
	}
	return b.String()
}

func firstN(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// EncodePair appends the binary encoding of a pair to dst.
func EncodePair(dst []byte, p Pair) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.Lo))
	dst = binary.AppendUvarint(dst, uint64(p.Hi))
	return dst
}

// DecodePair decodes a pair and returns bytes consumed.
func DecodePair(src []byte) (Pair, int, error) {
	lo, n := binary.Uvarint(src)
	if n <= 0 {
		return Pair{}, 0, fmt.Errorf("entity: truncated pair (lo)")
	}
	hi, m := binary.Uvarint(src[n:])
	if m <= 0 {
		return Pair{}, 0, fmt.Errorf("entity: truncated pair (hi)")
	}
	return Pair{Lo: ID(lo), Hi: ID(hi)}, n + m, nil
}

// Equal reports deep equality of two entities.
func Equal(a, b *Entity) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.ID != b.ID || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	return true
}
