// Package blocking implements the paper's progressive blocking (§III-A):
// main blocking functions that partition the dataset into root blocks,
// sub-blocking functions that hierarchically refine each root block into
// a tree of smaller blocks, the forest abstraction, and the first
// MapReduce job that materializes the forests and gathers the block
// statistics the schedule generator needs (sizes, child keys, and
// covered/uncovered pair counts).
package blocking

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"proger/internal/entity"
	"proger/internal/normkey"
	"proger/internal/textsim"
)

// KeyKind selects how a family derives its blocking keys from the
// attribute value.
type KeyKind int

const (
	// KeyPrefix keys on lower-cased character prefixes (Table II).
	KeyPrefix KeyKind = iota
	// KeySoundex keys on prefixes of the Soundex code of the value's
	// first word — the phonetic blocking of the merge/purge line of
	// work [3], robust to spelling variation in name-like attributes.
	KeySoundex
)

// String implements fmt.Stringer.
func (k KeyKind) String() string {
	switch k {
	case KeyPrefix:
		return "prefix"
	case KeySoundex:
		return "soundex"
	default:
		return fmt.Sprintf("KeyKind(%d)", int(k))
	}
}

// Family is a main blocking function X¹ together with its sub-blocking
// functions X², X³, …  All of them key on prefixes of one attribute
// (Table II), so a level-(i+1) key extends the level-i key and the
// generated blocks nest into a tree.
type Family struct {
	// Name is the function family's symbol ("X", "Y", "Z").
	Name string
	// Attr is the index of the attribute supplying the blocking key.
	Attr int
	// PrefixLens[i] is the key prefix length of the level-(i+1)
	// function; PrefixLens[0] belongs to the main function X¹.
	// Must be strictly increasing.
	PrefixLens []int
	// Index is this family's 1-based position in the total dominance
	// order ≻_F (1 = most dominating). The paper pre-specifies this
	// order by domain knowledge (§IV-A).
	Index int
	// Kind selects the key derivation; the zero value is KeyPrefix.
	Kind KeyKind
}

// Levels returns the number of blocking functions in the family,
// i.e. N(X¹)+1: the main function plus its sub-blocking functions.
func (f *Family) Levels() int { return len(f.PrefixLens) }

// Key returns the blocking key of e at the given level (1-based).
// Prefix keys are lower-cased; values shorter than the prefix length
// key on the whole value. Soundex keys are prefixes of the value's
// first-word Soundex code, so deeper levels still refine shallower
// ones.
func (f *Family) Key(e *entity.Entity, level int) string {
	n := f.prefixLen(level)
	if f.Kind == KeySoundex {
		return truncate(textsim.SoundexOfFirstWord(e.Attr(f.Attr)), n)
	}
	return lowerPrefix(e.Attr(f.Attr), n)
}

// AppendKey appends to dst the level-`level` key of an entity whose
// blocking attribute holds the bytes v — Key on an encoded record
// (entity.View), byte for byte the same key, with no string built
// unless a non-ASCII byte inside the prefix forces lowerPrefix's
// whole-value lowering.
func (f *Family) AppendKey(dst, v []byte, level int) []byte {
	n := f.prefixLen(level)
	at := len(dst)
	if f.Kind == KeySoundex {
		dst = textsim.AppendSoundexOfFirstWord(dst, v)
	} else {
		p := truncate(v, n)
		for _, c := range p {
			if c >= utf8.RuneSelf {
				p = v
				break
			}
		}
		dst = normkey.AppendLower(dst, p)
	}
	return dst[:at+min(n, len(dst)-at)]
}

// prefixLen returns the key length of the level-`level` function.
func (f *Family) prefixLen(level int) int {
	if level < 1 || level > f.Levels() {
		panic(fmt.Sprintf("blocking: level %d out of range for family %s with %d levels", level, f.Name, f.Levels()))
	}
	return f.PrefixLens[level-1]
}

// Shallower returns the level-`level` key of the entity whose key at
// some deeper (or the same) level is `deeper`: keys of one family nest
// by prefix, so a caller that needs every level derives the deepest
// key once and truncates.
func (f *Family) Shallower(deeper string, level int) string {
	return truncate(deeper, f.PrefixLens[level-1])
}

func truncate[T string | []byte](v T, n int) T {
	if len(v) > n {
		return v[:n]
	}
	return v
}

// lowerPrefix returns the first n bytes of strings.ToLower(v) (all of
// it when shorter). While the first n bytes of v are ASCII, lowering
// maps them byte for byte and nothing behind them can move them, so
// only those are lowered. ToLower can change the byte length of
// anything else (İ, ẞ, invalid UTF-8), so a non-ASCII byte inside the
// prefix falls back to lowering the whole value, which keeps keys
// byte-identical.
func lowerPrefix(v string, n int) string {
	p := truncate(v, n)
	for i := 0; i < len(p); i++ {
		if p[i] >= utf8.RuneSelf {
			return truncate(strings.ToLower(v), n)
		}
	}
	return strings.ToLower(p)
}

// Validate checks the family's invariants.
func (f *Family) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("blocking: family needs a name")
	}
	if f.Attr < 0 {
		return fmt.Errorf("blocking: family %s: negative attribute", f.Name)
	}
	if len(f.PrefixLens) == 0 {
		return fmt.Errorf("blocking: family %s: no levels", f.Name)
	}
	for i := 1; i < len(f.PrefixLens); i++ {
		if f.PrefixLens[i] <= f.PrefixLens[i-1] {
			return fmt.Errorf("blocking: family %s: prefix lengths must increase (%v)", f.Name, f.PrefixLens)
		}
	}
	if f.Index < 1 {
		return fmt.Errorf("blocking: family %s: dominance index must be ≥ 1", f.Name)
	}
	return nil
}

// Families is the ordered set of blocking-function families of a
// pipeline configuration. Families must be listed in dominance order:
// Families[i].Index == i+1.
type Families []*Family

// Validate checks every family and the dominance-order convention.
func (fs Families) Validate() error {
	if len(fs) == 0 {
		return fmt.Errorf("blocking: at least one family required")
	}
	seen := map[string]bool{}
	for i, f := range fs {
		if err := f.Validate(); err != nil {
			return err
		}
		if f.Index != i+1 {
			return fmt.Errorf("blocking: family %s at position %d has dominance index %d (families must be listed in ≻_F order)", f.Name, i, f.Index)
		}
		if seen[f.Name] {
			return fmt.Errorf("blocking: duplicate family name %s", f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// MainKeys returns e's main (level-1) blocking key for every family,
// in dominance order — the annotation of §III-B.
func (fs Families) MainKeys(e *entity.Entity) []string {
	keys := make([]string, len(fs))
	for i, f := range fs {
		keys[i] = f.Key(e, 1)
	}
	return keys
}

// CiteSeerXFamilies returns the Table-II blocking configuration for the
// publications schema: title prefixes 2/4/8, abstract prefixes 3/5,
// venue prefixes 3/5, with X ≻ Y ≻ Z.
func CiteSeerXFamilies(schema *entity.Schema) Families {
	return Families{
		{Name: "X", Attr: schema.Index("title"), PrefixLens: []int{2, 4, 8}, Index: 1},
		{Name: "Y", Attr: schema.Index("abstract"), PrefixLens: []int{3, 5}, Index: 2},
		{Name: "Z", Attr: schema.Index("venue"), PrefixLens: []int{3, 5}, Index: 3},
	}
}

// OLBooksFamilies returns the Table-II blocking configuration for the
// books schema: title prefixes 3/5/8, authors prefixes 3/5, publisher
// prefixes 3/5, with X ≻ Y ≻ Z.
func OLBooksFamilies(schema *entity.Schema) Families {
	return Families{
		{Name: "X", Attr: schema.Index("title"), PrefixLens: []int{3, 5, 8}, Index: 1},
		{Name: "Y", Attr: schema.Index("authors"), PrefixLens: []int{3, 5}, Index: 2},
		{Name: "Z", Attr: schema.Index("publisher"), PrefixLens: []int{3, 5}, Index: 3},
	}
}

// BlockID names one block: the family, the blocking-function level
// within the family (1 = root/main), and the blocking key value.
type BlockID struct {
	Family int8 // index into Families (0-based, dominance order)
	Level  int8 // 1-based level
	Key    string
}

// String renders like "X2(jo)" — family name unavailable here, so the
// family's position is printed.
func (b BlockID) String() string {
	return "F" + strconv.Itoa(int(b.Family)) + ".L" + strconv.Itoa(int(b.Level)) + "(" + b.Key + ")"
}

// TreeKey returns the BlockID of the tree root this block descends
// from, under prefix nesting (the root key is the block key truncated
// to the family's level-1 prefix length).
func (b BlockID) TreeKey(fams Families) BlockID {
	return BlockID{Family: b.Family, Level: 1, Key: fams[b.Family].Shallower(b.Key, 1)}
}
