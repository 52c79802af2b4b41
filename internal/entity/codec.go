package entity

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
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

// DecodeBinary decodes one entity from src, returning the entity and
// the number of bytes consumed. Every length is validated before
// anything is copied; the attribute region (length prefixes included)
// then becomes ONE string and the attributes are slices of it, so an
// entity costs three allocations whatever its attribute count — and
// holding on to any one attribute keeps the bytes of all of them alive.
func DecodeBinary(src []byte) (*Entity, int, error) {
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
	if cnt > uint64(len(src)) { // cheap sanity bound: each attr needs ≥1 byte of header
		return nil, 0, fmt.Errorf("entity: corrupt attr count %d", cnt)
	}
	start := off
	for i := 0; i < int(cnt); i++ {
		l, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("entity: truncated binary entity (attr %d len)", i)
		}
		off += n
		if l > uint64(len(src)-off) {
			return nil, 0, fmt.Errorf("entity: truncated binary entity (attr %d body)", i)
		}
		off += int(l)
	}
	region := string(src[start:off])
	attrs := make([]string, cnt)
	pos := 0
	for i := range attrs {
		l, n := binary.Uvarint(src[start+pos:])
		pos += n
		attrs[i] = region[pos : pos+int(l)]
		pos += int(l)
	}
	return &Entity{ID: ID(id), Attrs: attrs}, off, nil
}

// WriteTSV writes the dataset as tab-separated text: a header line
// "#id<TAB>attr1<TAB>attr2..." followed by one line per entity.
// Tab and newline characters inside values are escaped as \t, \n, \\.
func WriteTSV(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "#id\t%s\n", strings.Join(d.Schema.Attributes, "\t")); err != nil {
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
	if !strings.ContainsAny(s, "\t\n\\") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\t':
			b.WriteString(`\t`)
		case '\n':
			b.WriteString(`\n`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteRune(r)
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
	for _, r := range s {
		if esc {
			switch r {
			case 't':
				b.WriteRune('\t')
			case 'n':
				b.WriteRune('\n')
			case '\\':
				b.WriteRune('\\')
			default:
				b.WriteRune('\\')
				b.WriteRune(r)
			}
			esc = false
			continue
		}
		if r == '\\' {
			esc = true
			continue
		}
		b.WriteRune(r)
	}
	if esc {
		b.WriteRune('\\')
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
