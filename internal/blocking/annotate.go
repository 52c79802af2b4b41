package blocking

import (
	"encoding/binary"
	"fmt"

	"proger/internal/entity"
)

// Annotated is the annotated entity e*ᵢ of §III-B: the entity plus its
// main blocking key values (in family dominance order). Annotation is
// produced by Job 1's map phase so Job 2 need not recompute keys.
type Annotated struct {
	Ent      *entity.Entity
	MainKeys []string
}

// Annotate computes the annotated form of e under the families.
func Annotate(fs Families, e *entity.Entity) *Annotated {
	return &Annotated{Ent: e, MainKeys: fs.MainKeys(e)}
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
// prefixes included).
func scanKeys(src []byte) (cnt, start, end int, err error) {
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
		off += int(l)
	}
	return int(c), n, off, nil
}

// DecodeAnnotated decodes one annotated entity, returning it and the
// number of bytes consumed. It is the one-off form; a reduce call that
// decodes a block's worth uses an AnnotatedDecoder.
func DecodeAnnotated(src []byte) (*Annotated, int, error) {
	cnt, start, end, err := scanKeys(src)
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

// AnnotatedDecoder is DecodeAnnotated on slabs, under entity.Decoder's
// rules: Reset(n) makes room for n annotated entities and invalidates
// the ones handed out before, each costs two allocations (the entity's
// string and the keys'), and the zero value is ready to use.
type AnnotatedDecoder struct {
	ents entity.Decoder
	keys []string
	left int // entities Reset made room for and Decode has not yet used
}

// Reset implements the entity.Decoder contract for annotated entities.
func (d *AnnotatedDecoder) Reset(n int) {
	d.ents.Reset(n)
	d.keys, d.left = d.keys[:0], n
}

// Decode decodes one annotated entity into the slabs, returning the
// entity, its main keys and the number of bytes consumed.
func (d *AnnotatedDecoder) Decode(src []byte) (*entity.Entity, []string, int, error) {
	cnt, start, end, err := scanKeys(src)
	if err != nil {
		return nil, nil, 0, err
	}
	e, n, err := d.ents.Decode(src[end:])
	if err != nil {
		return nil, nil, 0, err
	}
	if cap(d.keys)-len(d.keys) < cnt {
		d.keys = make([]string, 0, cnt*max(d.left, 1))
	}
	d.left--
	keys := d.keys[len(d.keys) : len(d.keys)+cnt : len(d.keys)+cnt]
	d.keys = d.keys[:len(d.keys)+cnt]
	entity.CutStrings(keys, src[start:end])
	return e, keys, end + n, nil
}
