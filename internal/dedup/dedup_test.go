package dedup

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestShouldResolveDominatingFamilyWins(t *testing.T) {
	// n=3 families. Both entities share the family-1 tree (dom 7).
	a := List{7, 20, 30}
	b := List{7, 21, 31}
	// Resolving under family 2 or 3: family 1 is responsible → false.
	if ShouldResolve(a, b, 2, 3) {
		t.Error("family-2 block must skip a pair shared under family 1")
	}
	if ShouldResolve(a, b, 3, 3) {
		t.Error("family-3 block must skip a pair shared under family 1")
	}
	// Resolving under family 1 itself: loop is empty → resolve.
	if !ShouldResolve(a, b, 1, 3) {
		t.Error("family-1 block must resolve its own pair")
	}
}

func TestShouldResolveNoSharing(t *testing.T) {
	a := List{1, 2, 3}
	b := List{4, 5, 6}
	for index := 1; index <= 3; index++ {
		if !ShouldResolve(a, b, index, 3) {
			t.Errorf("index %d: disjoint lists must resolve", index)
		}
	}
}

func TestShouldResolveSplitDescendant(t *testing.T) {
	// Both entities fall in the same split-off descendant tree (dom 99):
	// lists carry the (n+1)st value.
	a := List{10, 2, 3, 99}
	b := List{10, 5, 6, 99}
	if ShouldResolve(a, b, 1, 3) {
		t.Error("pair inside a common split subtree must be skipped by the ancestor tree")
	}
	// Different split subtrees → resolve (under family 1).
	b2 := List{10, 5, 6, 98}
	if !ShouldResolve(a, b2, 1, 3) {
		t.Error("different split subtrees must not suppress resolution")
	}
	// Only one entity has the extra value → resolve.
	b3 := List{10, 5, 6}
	if !ShouldResolve(a, b3, 1, 3) {
		t.Error("single-sided split value must not suppress resolution")
	}
}

func TestShouldResolvePaperExample(t *testing.T) {
	// §V example: T(X²₁) split from T(X¹₁), T(X³₁) split from T(X²₁).
	// List(e₁, X²₁) = [Dom(T(X²₁)), Dom(T(Y¹₁)), Dom(T(X³₁))].
	// n = 2 main functions (X, Y).
	domX21, domY11, domX31 := Dom(5), Dom(8), Dom(12)
	e1 := List{domX21, domY11, domX31}
	e2 := List{domX21, domY11, domX31}
	// Resolving inside T(X²₁) (family X, index 1): both entities are in
	// the deeper split tree T(X³₁) → skip; T(X³₁) handles the pair.
	if ShouldResolve(e1, e2, 1, 2) {
		t.Error("pair of a deeper split tree must be skipped")
	}
	// An entity pair sharing X²₁'s tree but not the deeper split:
	e3 := List{domX21, domY11}
	if !ShouldResolve(e1, e3, 1, 2) {
		t.Error("pair not fully inside the split tree must be resolved")
	}
	// Under family Y (index 2): the X-family position (m=0) is shared →
	// the Y tree must skip.
	if ShouldResolve(e1, e2, 2, 2) {
		t.Error("Y tree must defer to the dominating X tree")
	}
}

func TestShouldResolveExactlyOneResponsible(t *testing.T) {
	// Property: for any pair of lists (same length, no split values),
	// exactly one family index among those where the lists share a tree
	// claims responsibility — the smallest sharing index — and indexes
	// below it that don't share never claim it incorrectly.
	f := func(a0, b0, a1, b1, a2, b2 int8) bool {
		a := List{Dom(a0), Dom(a1), Dom(a2)}
		b := List{Dom(b0), Dom(b1), Dom(b2)}
		n := 3
		// Find the families where the pair co-occurs (same tree).
		responsible := 0
		for idx := 1; idx <= n; idx++ {
			if a[idx-1] == b[idx-1] && ShouldResolve(a, b, idx, n) {
				responsible++
			}
		}
		shared := 0
		for m := 0; m < n; m++ {
			if a[m] == b[m] {
				shared++
			}
		}
		if shared == 0 {
			return responsible == 0
		}
		return responsible == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSentinelUniqueness(t *testing.T) {
	seen := map[Dom]bool{}
	for id := int32(0); id < 1000; id++ {
		s := SentinelFor(id)
		if s >= 0 {
			t.Fatalf("sentinel %d not negative", s)
		}
		if seen[s] {
			t.Fatalf("sentinel collision at id %d", id)
		}
		seen[s] = true
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	lists := []List{
		{},
		{0},
		{1, 2, 3},
		{-5, 10, -200000, 300000},
	}
	for _, l := range lists {
		buf := Encode(nil, l)
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%v): %v", l, err)
		}
		if n != len(buf) {
			t.Errorf("consumed %d of %d", n, len(buf))
		}
		if len(l) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, l) {
			t.Errorf("round trip %v → %v", l, got)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	buf := Encode(nil, List{1, -2, 3})
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := Decode(buf[:cut]); err == nil && cut > 0 {
			// cut 0 yields count error too; all prefixes must fail.
			t.Errorf("prefix %d decoded without error", cut)
		}
	}
}

func TestSmallestKeyResponsible(t *testing.T) {
	// Fig. 2 example: e1,e2 share X("jo") and Y("hi"); "hi" < "jo" so
	// the Y block is responsible.
	aKeys := []string{"jo", "hi"}
	bKeys := []string{"jo", "hi"}
	if SmallestKeyResponsible(aKeys, bKeys, 0, "jo") {
		t.Error("X(jo) must not be responsible")
	}
	if !SmallestKeyResponsible(aKeys, bKeys, 1, "hi") {
		t.Error("Y(hi) must be responsible")
	}
	// No common keys → nobody is responsible (pair never co-blocked).
	if SmallestKeyResponsible([]string{"aa", "bb"}, []string{"cc", "dd"}, 0, "aa") {
		t.Error("pair with no common block has no responsible block")
	}
	// Tie on key value: lower family index wins.
	if !SmallestKeyResponsible([]string{"kk", "kk"}, []string{"kk", "kk"}, 0, "kk") {
		t.Error("tie should go to family 0")
	}
	if SmallestKeyResponsible([]string{"kk", "kk"}, []string{"kk", "kk"}, 1, "kk") {
		t.Error("family 1 must lose the tie")
	}
}

func TestSmallestKeyExactlyOneResponsible(t *testing.T) {
	f := func(a0, b0, a1, b1 uint8) bool {
		keys := func(x, y uint8) []string {
			return []string{string(rune('a' + x%4)), string(rune('a' + y%4))}
		}
		aKeys, bKeys := keys(a0, a1), keys(b0, b1)
		count := 0
		for j := range aKeys {
			if aKeys[j] == bKeys[j] && SmallestKeyResponsible(aKeys, bKeys, j, aKeys[j]) {
				count++
			}
		}
		shared := aKeys[0] == bKeys[0] || aKeys[1] == bKeys[1]
		if !shared {
			return count == 0
		}
		return count == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeList guards the list codec, which Job 2's tree chains are
// written in: arbitrary bytes decode or fail without a panic, and
// whatever decodes re-encodes to the same list.
func FuzzDecodeList(f *testing.F) {
	f.Add(Encode(nil, List{1, -2, 300000}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re := Encode(nil, l)
		l2, _, err := Decode(re)
		if err != nil || len(l2) != len(l) {
			t.Fatalf("re-encode mismatch (%v)", err)
		}
		for i := range l {
			if l[i] != l2[i] {
				t.Fatalf("value %d differs", i)
			}
		}
	})
}
