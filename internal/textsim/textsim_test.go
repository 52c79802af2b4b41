package textsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// levenshteinDP is the textbook O(len(a)·len(b)) row dynamic program —
// the implementation the bit-parallel kernel replaced, kept here as the
// oracle the kernel is tested against.
func levenshteinDP(a, b string) int {
	row := make([]int, len(b)+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[i-1][0]
		row[0] = i
		for j := 1; j <= len(b); j++ {
			cur := row[j] // row[i-1][j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			row[j] = min(prev+cost, cur+1, row[j-1]+1)
			prev = cur
		}
	}
	return row[len(b)]
}

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"gumbo", "gambol", 2},
		{"John Lopez", "Jonh Lopez", 2}, // transposition = 2 unit edits
		{"Charles Andrews", "Gharles Andrews", 1},
		{"a", "b", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Levenshtein(c.b, c.a); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestLevenshteinMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randStr := func() string {
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(4)) // small alphabet → collisions
		}
		return string(b)
	}
	for i := 0; i < 300; i++ {
		a, b, c := randStr(), randStr(), randStr()
		dab := Levenshtein(a, b)
		dba := Levenshtein(b, a)
		if dab != dba {
			t.Fatalf("symmetry violated: d(%q,%q)=%d, d(%q,%q)=%d", a, b, dab, b, a, dba)
		}
		if (dab == 0) != (a == b) {
			t.Fatalf("identity violated for %q,%q: d=%d", a, b, dab)
		}
		dac := Levenshtein(a, c)
		dcb := Levenshtein(c, b)
		if dab > dac+dcb {
			t.Fatalf("triangle inequality violated: d(%q,%q)=%d > %d+%d via %q", a, b, dab, dac, dcb, c)
		}
	}
}

func TestLevenshteinCappedAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randStr := func(maxLen int) string {
		n := rng.Intn(maxLen)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(5))
		}
		return string(b)
	}
	for i := 0; i < 500; i++ {
		a, b := randStr(15), randStr(15)
		full := levenshteinDP(a, b)
		for _, capv := range []int{0, 1, 2, 3, 5, 20} {
			got := LevenshteinCapped(a, b, capv)
			if full <= capv {
				if got != full {
					t.Fatalf("LevenshteinCapped(%q,%q,%d) = %d, want exact %d", a, b, capv, got, full)
				}
			} else if got <= capv {
				t.Fatalf("LevenshteinCapped(%q,%q,%d) = %d, but true distance %d > cap", a, b, capv, got, full)
			}
		}
	}
}

func TestLevenshteinCappedEdgeCases(t *testing.T) {
	if got := LevenshteinCapped("abc", "abc", 0); got != 0 {
		t.Errorf("equal strings cap 0: got %d", got)
	}
	if got := LevenshteinCapped("abc", "abd", 0); got != 1 {
		t.Errorf("distance-1 strings cap 0: got %d (want cap+1 = 1)", got)
	}
	if got := LevenshteinCapped("", "xyz", 2); got != 3 {
		t.Errorf("len-diff exceeds cap: got %d, want 3", got)
	}
	if got := LevenshteinCapped("", "xy", 2); got != 2 {
		t.Errorf("empty vs len-2 with cap 2: got %d, want 2", got)
	}
	if got := LevenshteinCapped("ab", "ab", -5); got != 0 {
		t.Errorf("negative cap, equal strings: got %d", got)
	}
}

func TestSimilarity(t *testing.T) {
	if got := Similarity("", ""); got != 1 {
		t.Errorf("Similarity of empties = %v, want 1", got)
	}
	if got := Similarity("abcd", "abcd"); got != 1 {
		t.Errorf("identical: %v", got)
	}
	if got := Similarity("abcd", "wxyz"); got != 0 {
		t.Errorf("disjoint same-length: %v, want 0", got)
	}
	if got := Similarity("ab", "abcd"); got != 0.5 {
		t.Errorf("half: %v, want 0.5", got)
	}
}

func TestSimilarityRange(t *testing.T) {
	f := func(a, b string) bool {
		s := Similarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaro(t *testing.T) {
	if got := Jaro("", ""); got != 1 {
		t.Errorf("Jaro empties = %v", got)
	}
	if got := Jaro("abc", ""); got != 0 {
		t.Errorf("Jaro vs empty = %v", got)
	}
	if got := Jaro("abc", "abc"); got != 1 {
		t.Errorf("Jaro identical = %v", got)
	}
	// Classic example: MARTHA vs MARHTA = 0.944...
	got := Jaro("MARTHA", "MARHTA")
	if got < 0.944 || got > 0.945 {
		t.Errorf("Jaro(MARTHA,MARHTA) = %v, want ≈0.9444", got)
	}
	// DWAYNE vs DUANE = 0.822...
	got = Jaro("DWAYNE", "DUANE")
	if got < 0.822 || got > 0.823 {
		t.Errorf("Jaro(DWAYNE,DUANE) = %v, want ≈0.8222", got)
	}
}

func TestJaroWinkler(t *testing.T) {
	// MARTHA/MARHTA share prefix MAR (3): 0.9444 + 3*0.1*(1-0.9444) ≈ 0.9611
	got := JaroWinkler("MARTHA", "MARHTA")
	if got < 0.961 || got > 0.962 {
		t.Errorf("JaroWinkler(MARTHA,MARHTA) = %v, want ≈0.9611", got)
	}
	if JaroWinkler("abcd", "abcd") != 1 {
		t.Error("JaroWinkler identical should be 1")
	}
	f := func(a, b string) bool {
		s := JaroWinkler(a, b)
		return s >= 0 && s <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaroSymmetry(t *testing.T) {
	f := func(a, b string) bool {
		const eps = 1e-12
		d := Jaro(a, b) - Jaro(b, a)
		return d < eps && d > -eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQGrams(t *testing.T) {
	g := QGrams("hello", 2)
	want := map[string]int{"he": 1, "el": 1, "ll": 1, "lo": 1}
	if len(g) != len(want) {
		t.Fatalf("QGrams(hello,2) = %v", g)
	}
	for k, v := range want {
		if g[k] != v {
			t.Errorf("gram %q = %d, want %d", k, g[k], v)
		}
	}
	if g := QGrams("aaa", 2); g["aa"] != 2 {
		t.Errorf("multiset count: %v", g)
	}
	if g := QGrams("x", 3); g["x"] != 1 {
		t.Errorf("short string: %v", g)
	}
	if g := QGrams("", 2); len(g) != 0 {
		t.Errorf("empty string: %v", g)
	}
	if g := QGrams("abc", 0); len(g) != 2 {
		t.Errorf("q<=0 defaults to 2: %v", g)
	}
}

func TestJaccardQGram(t *testing.T) {
	if got := JaccardQGram("night", "night", 2); got != 1 {
		t.Errorf("identical: %v", got)
	}
	if got := JaccardQGram("", "", 2); got != 1 {
		t.Errorf("empties: %v", got)
	}
	if got := JaccardQGram("abc", "xyz", 2); got != 0 {
		t.Errorf("disjoint: %v", got)
	}
	got := JaccardQGram("night", "nacht", 2)
	// grams night: ni,ig,gh,ht; nacht: na,ac,ch,ht → inter 1, union 7
	if got < 1.0/7-1e-9 || got > 1.0/7+1e-9 {
		t.Errorf("JaccardQGram(night,nacht) = %v, want 1/7", got)
	}
	f := func(a, b string) bool {
		s := JaccardQGram(a, b, 2)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExact(t *testing.T) {
	if Exact("a", "a") != 1 || Exact("a", "b") != 0 || Exact("", "") != 1 {
		t.Error("Exact misbehaves")
	}
}

func TestLevenshteinLongStrings(t *testing.T) {
	a := strings.Repeat("abcde", 100)
	b := strings.Repeat("abcdf", 100)
	if got := Levenshtein(a, b); got != 100 {
		t.Errorf("long strings: %d, want 100", got)
	}
	if got := LevenshteinCapped(a, b, 10); got != 11 {
		t.Errorf("capped long strings: %d, want 11", got)
	}
	if got := LevenshteinCapped(a, b, 150); got != 100 {
		t.Errorf("capped (wide) long strings: %d, want 100", got)
	}
}

func TestTokenCosine(t *testing.T) {
	if got := TokenCosine("", ""); got != 1 {
		t.Errorf("empties = %v", got)
	}
	if got := TokenCosine("a b", ""); got != 0 {
		t.Errorf("one empty = %v", got)
	}
	if got := TokenCosine("entity resolution", "entity resolution"); got < 0.9999 {
		t.Errorf("identical = %v", got)
	}
	// Order-insensitive: swapped words score 1.
	if got := TokenCosine("john lopez", "lopez john"); got < 0.9999 {
		t.Errorf("swapped = %v", got)
	}
	// Case-insensitive.
	if got := TokenCosine("John Lopez", "john lopez"); got < 0.9999 {
		t.Errorf("case = %v", got)
	}
	// Disjoint tokens score 0.
	if got := TokenCosine("aa bb", "cc dd"); got != 0 {
		t.Errorf("disjoint = %v", got)
	}
	// Half overlap: "a b" vs "a c" → 1/2.
	if got := TokenCosine("a b", "a c"); got < 0.499 || got > 0.501 {
		t.Errorf("half = %v", got)
	}
	f := func(a, b string) bool {
		s := TokenCosine(a, b)
		return s >= 0 && s <= 1.0000001 && s == TokenCosine(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaccardQGramMatchesMapReferenceProperty(t *testing.T) {
	// The sorted-scratch kernel must agree with the map-based definition
	// (QGrams + multiset intersection/union) on arbitrary inputs.
	ref := func(a, b string, q int) float64 {
		if a == b {
			return 1
		}
		ga, gb := QGrams(a, q), QGrams(b, q)
		inter, union := 0, 0
		for g, ca := range ga {
			cb := gb[g]
			inter += min2(ca, cb)
			union += max2(ca, cb)
		}
		for g, cb := range gb {
			if _, seen := ga[g]; !seen {
				union += cb
			}
		}
		if union == 0 {
			return 1
		}
		return float64(inter) / float64(union)
	}
	f := func(a, b string, q uint8) bool {
		qq := int(q%4) + 1
		return JaccardQGram(a, b, qq) == ref(a, b, qq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTokenCosineASCIIMatchesMapPath(t *testing.T) {
	words := []string{"Smith", "DOE", "and", "garcia", "J", "M", "lopez", ""}
	rng := rand.New(rand.NewSource(33))
	join := func() string {
		n := rng.Intn(8)
		out := ""
		for i := 0; i < n; i++ {
			out += words[rng.Intn(len(words))] + "  \t"[0:1+rng.Intn(2)]
		}
		return out
	}
	for trial := 0; trial < 500; trial++ {
		a, b := join(), join()
		fast := tokenCosineASCII(a, b)
		slow := tokenCosineMaps(a, b)
		if math.Abs(fast-slow) > 1e-12 {
			t.Fatalf("ASCII kernel diverges on (%q, %q): %v vs %v", a, b, fast, slow)
		}
	}
}

func TestTokenCosineUnicodeFallback(t *testing.T) {
	// Non-ASCII input must take the Unicode path, with full case
	// folding.
	if got := TokenCosine("MÜLLER weber", "müller WEBER"); got < 0.999 {
		t.Errorf("unicode cosine = %v, want 1", got)
	}
}
