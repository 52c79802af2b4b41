package blocking

import (
	"encoding/binary"
	"fmt"

	"proger/internal/entity"
	"proger/internal/mapreduce"
)

// Annotated is the annotated entity e*ᵢ of §III-B: the entity plus its
// main blocking key values (in family dominance order). Annotation is
// produced by Job 1's map phase so Job 2 need not recompute keys.
type Annotated struct {
	Ent      *entity.Entity
	MainKeys []string
}

// EncodeAnnotated appends the binary encoding of a to dst.
func EncodeAnnotated(dst []byte, a *Annotated) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(a.MainKeys)))
	for _, k := range a.MainKeys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
	}
	return entity.EncodeBinary(dst, a.Ent)
}

// scanKeys validates the main-key list at the head of src and returns
// the key count and the bounds src[start:end] of the key region (length
// prefixes included). With views non-nil it also appends each key's
// bytes, as a sub-slice of src, to *views (which an error leaves half
// filled).
func scanKeys(src []byte, views *[][]byte) (cnt, start, end int, err error) {
	c, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("blocking: truncated annotation (key count)")
	}
	if c > uint64(len(src)) {
		return 0, 0, 0, fmt.Errorf("blocking: corrupt annotation key count %d", c)
	}
	off := n
	for i := 0; i < int(c); i++ {
		l, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return 0, 0, 0, fmt.Errorf("blocking: truncated annotation (key %d len)", i)
		}
		off += n
		if l > uint64(len(src)-off) {
			return 0, 0, 0, fmt.Errorf("blocking: truncated annotation (key %d body)", i)
		}
		if views != nil {
			*views = append(*views, src[off:off+int(l):off+int(l)])
		}
		off += int(l)
	}
	return int(c), n, off, nil
}

// DecodeAnnotated decodes one annotated entity, returning it and the
// number of bytes consumed. A caller that reads keys and not entities
// uses an AnnotatedView.
func DecodeAnnotated(src []byte) (*Annotated, int, error) {
	cnt, start, end, err := scanKeys(src, nil)
	if err != nil {
		return nil, 0, err
	}
	e, n, err := entity.DecodeBinary(src[end:])
	if err != nil {
		return nil, 0, err
	}
	keys := make([]string, cnt)
	entity.CutStrings(keys, src[start:end])
	return &Annotated{Ent: e, MainKeys: keys}, end + n, nil
}

// AnnotatedView is an encoded annotated entity read in place: Scan
// validates it exactly as DecodeAnnotated does — same errors, same
// consumed count — and leaves the main keys and the entity's attributes
// as sub-slices of the encoding. Blocking statistics are functions of
// keys alone, so this is all of a record that Job 1's reduce side
// reads. It is scratch, under entity.View's rules; the zero value is
// ready to use.
type AnnotatedView struct {
	MainKeys [][]byte
	Ent      entity.View
}

// ScanKeys points v.MainKeys at the annotation at the head of src and
// returns the offset of the entity behind it, which is left unread.
func (v *AnnotatedView) ScanKeys(src []byte) (int, error) {
	v.MainKeys = v.MainKeys[:0]
	_, _, end, err := scanKeys(src, &v.MainKeys)
	return end, err
}

// Scan points v at the annotated entity at the head of src and returns
// the number of bytes it occupies.
func (v *AnnotatedView) Scan(src []byte) (int, error) {
	off, err := v.ScanKeys(src)
	if err != nil {
		return 0, err
	}
	n, err := v.Ent.Scan(src[off:])
	if err != nil {
		return 0, err
	}
	return off + n, nil
}

// Annotator is the map function Job 1 and the Basic baseline share, on
// the record's own bytes: the main keys are derived from a view of the
// input entity, the annotated value is the key header in front of the
// entity's encoding as it arrived, and the map-output keys come from a
// table with one entry per main block the task has seen. One per map
// task; the zero value is ready to use.
type Annotator struct {
	view entity.View
	key  []byte   // the main key being derived
	hdr  []byte   // the annotation: key count, then each key behind its length
	out  []string // the record's map-output key per family
	// keyOf[f] maps a main key of family f to Job1KeyOf(f, key).
	keyOf []map[string]string
	// vals holds the annotated values handed out, which are the task's
	// map output.
	vals mapreduce.ValueChunks
}

// Annotate returns the annotated form of the encoded entity at the
// head of value — byte for byte EncodeAnnotated of the decoded entity
// and its Families.MainKeys — and the map-output key it goes out under
// for each family. The keys are valid until the next call; the value is
// cut from the Annotator's chunks, to be emitted and never written to.
func (a *Annotator) Annotate(fams Families, value []byte) ([]byte, []string, error) {
	n, err := a.view.Scan(value)
	if err != nil {
		return nil, nil, err
	}
	if a.keyOf == nil {
		a.out, a.keyOf = make([]string, len(fams)), make([]map[string]string, len(fams))
		for f := range a.keyOf {
			a.keyOf[f] = map[string]string{}
		}
	}
	a.hdr = binary.AppendUvarint(a.hdr[:0], uint64(len(fams)))
	for f, fam := range fams {
		a.key = fam.AppendKey(a.key[:0], a.view.Attr(fam.Attr), 1)
		a.hdr = binary.AppendUvarint(a.hdr, uint64(len(a.key)))
		a.hdr = append(a.hdr, a.key...)
		out, ok := a.keyOf[f][string(a.key)]
		if !ok {
			out = Job1KeyOf(f, string(a.key))
			a.keyOf[f][out[len(out)-len(a.key):]] = out
		}
		a.out[f] = out
	}
	buf := append(a.vals.Alloc(len(a.hdr)+n), a.hdr...)
	return append(buf, value[:n]...), a.out, nil
}
