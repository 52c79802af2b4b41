package sched

import (
	"fmt"
	"sort"
	"strconv"
	"testing"
)

// edgeSQs are sequence values at the corners of SQFor's domain: first
// and last task, first, second and last position.
func edgeSQs() []int64 {
	var out []int64
	for _, task := range []int{0, 1, 7, 999_999_998, 999_999_999} {
		for _, pos := range []int{0, 1, 999_999_999} {
			out = append(out, SQFor(task, pos))
		}
	}
	return out
}

func TestSQKeyRoundTripAndOrder(t *testing.T) {
	sqs := edgeSQs()
	sort.Slice(sqs, func(i, j int) bool { return sqs[i] < sqs[j] })
	prev := ""
	for _, sq := range sqs {
		key := SQKey(sq)
		if want := fmt.Sprintf("%018d", sq); key != want {
			t.Errorf("SQKey(%d) = %q, want the %%018d form %q", sq, key, want)
		}
		back, err := ParseSQKey(key)
		if err != nil || back != sq {
			t.Errorf("ParseSQKey(SQKey(%d)) = %d, %v", sq, back, err)
		}
		if key <= prev {
			t.Errorf("key %q of %d does not sort after %q", key, sq, prev)
		}
		prev = key
	}
}

// Outside [0, 10^18) — values no schedule produces — SQKey keeps the
// %018d rendering it always had and ParseSQKey refuses the result.
func TestSQKeyOutOfRange(t *testing.T) {
	for _, sq := range []int64{-1, -999_999_999_999_999_999, 1_000_000_000_000_000_000, 1<<63 - 1, -1 << 63} {
		key := SQKey(sq)
		if want := fmt.Sprintf("%018d", sq); key != want {
			t.Errorf("SQKey(%d) = %q, want %q", sq, key, want)
		}
		if got, err := ParseSQKey(key); err == nil {
			t.Errorf("ParseSQKey(%q) = %d, want an error", key, got)
		}
	}
}

func TestParseSQKeyIsStrict(t *testing.T) {
	for _, key := range []string{
		"", "0", "notanumber",
		"00000000000000001",   // 17 digits
		"0000000000000000001", // 19 digits
		"+00000000000000001", "-00000000000000001",
		" 00000000000000001", "00000000000000001 ",
		"0000000000000000x1", "00000000000000001\n",
		"٠٠٠٠٠٠٠٠٠", // 9 Arabic-Indic digits, 18 bytes
		"0x0000000000000001", "1e0000000000000001", "0_0000000000000001",
	} {
		got, err := ParseSQKey(key)
		if err == nil {
			t.Errorf("ParseSQKey(%q) = %d, want an error", key, got)
			continue
		}
		if want := fmt.Sprintf("sched: bad sequence key %q: ", key); len(err.Error()) <= len(want) || err.Error()[:len(want)] != want {
			t.Errorf("ParseSQKey(%q) error %q does not start with %q", key, err, want)
		}
	}
}

// The partitioner parses one key per map-output record: a parse that
// allocated, or went through fmt, would be the per-record tax this
// pins at zero.
func TestParseSQKeyDoesNotAllocate(t *testing.T) {
	key := SQKey(SQFor(17, 4242))
	if got := testing.AllocsPerRun(1000, func() {
		if _, err := ParseSQKey(key); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ParseSQKey allocates %v times per call, want 0", got)
	}
}

func TestGenerateRendersEachBlockKeyOnce(t *testing.T) {
	trees, est := buildForest(t, 600, 3)
	s, err := Generate(trees, defaultConfig(trees, est, 4, Ours))
	if err != nil {
		t.Fatal(err)
	}
	for task, blocks := range s.TaskBlocks {
		for pos, b := range blocks {
			if b.SQ != SQFor(task, pos) || b.SQKey != SQKey(b.SQ) {
				t.Errorf("task %d pos %d: SQ %d, key %q", task, pos, b.SQ, b.SQKey)
			}
		}
	}
	for i, tr := range s.Trees {
		// The root is a tree's last scheduled block (children before
		// parents), which is when a reduce task drops the tree's state.
		for _, b := range tr.Blocks() {
			if b.SQ > tr.Root.SQ {
				t.Errorf("tree %d: block %s scheduled after its root", i, b.ID)
			}
		}
	}
}

// FuzzParseSQKey: ParseSQKey never panics, accepts exactly the strings
// of 18 ASCII digits, and on those agrees with strconv. Every Job-2
// map-output record goes through this hand-written parser.
func FuzzParseSQKey(f *testing.F) {
	for _, sq := range edgeSQs() {
		f.Add(SQKey(sq))
	}
	for _, s := range []string{"", "notanumber", "-00000000000000001", "0000000000000000001", "00000000000000000a", "٠٠٠٠٠٠٠٠٠"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, key string) {
		got, err := ParseSQKey(key)
		digits := len(key) == 18
		for i := 0; digits && i < len(key); i++ {
			digits = '0' <= key[i] && key[i] <= '9'
		}
		if digits != (err == nil) {
			t.Fatalf("ParseSQKey(%q) = %d, %v; 18 ASCII digits: %v", key, got, err, digits)
		}
		if !digits {
			return
		}
		want, perr := strconv.ParseInt(key, 10, 64)
		if perr != nil || got != want {
			t.Fatalf("ParseSQKey(%q) = %d, strconv says %d, %v", key, got, want, perr)
		}
		if SQKey(got) != key {
			t.Fatalf("SQKey(ParseSQKey(%q)) = %q", key, SQKey(got))
		}
	})
}

var (
	sinkKey string
	sinkSQ  int64
)

func BenchmarkSQKey(b *testing.B) {
	sq := SQFor(17, 4242)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey = SQKey(sq + int64(i&1023))
	}
}

func BenchmarkParseSQKey(b *testing.B) {
	key := SQKey(SQFor(17, 4242))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sq, err := ParseSQKey(key)
		if err != nil {
			b.Fatal(err)
		}
		sinkSQ = sq
	}
}
