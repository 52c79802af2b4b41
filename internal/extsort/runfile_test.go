package extsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestRunWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRunWriter(&buf)
	type rec struct {
		seq uint64
		key string
		val []byte
	}
	rng := rand.New(rand.NewSource(9))
	var want []rec
	for i := 0; i < 5000; i++ {
		r := rec{
			seq: uint64(rng.Int63()),
			key: fmt.Sprintf("key-%04d", rng.Intn(300)),
			val: []byte(strings.Repeat("payload", rng.Intn(10))),
		}
		want = append(want, r)
		if err := rw.WriteRecord(r.seq, r.key, r.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	rr := NewRunReader(bytes.NewReader(buf.Bytes()))
	for i, w := range want {
		seq, key, val, err := rr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if seq != w.seq || key != w.key || !bytes.Equal(val, w.val) {
			t.Fatalf("record %d: got (%d,%q,%q), want (%d,%q,%q)",
				i, seq, key, val, w.seq, w.key, w.val)
		}
	}
	if _, _, _, err := rr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestRunReaderDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRunWriter(&buf)
	for i := 0; i < 100; i++ {
		if err := rw.WriteRecord(uint64(i), fmt.Sprintf("k%d", i), []byte("some value bytes")); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one payload byte; the CRC must catch it.
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x40
	rr := NewRunReader(bytes.NewReader(mut))
	for {
		_, _, _, err := rr.Next()
		if err == io.EOF {
			t.Fatal("corrupted run read to clean EOF — CRC did not catch the flip")
		}
		if err != nil {
			break // corruption surfaced as an error, as it must
		}
	}
	// Truncation mid-stream must error, not silently end.
	rr = NewRunReader(bytes.NewReader(data[:len(data)-3]))
	for {
		_, _, _, err := rr.Next()
		if err == io.EOF {
			t.Fatal("truncated run read to clean EOF")
		}
		if err != nil {
			break
		}
	}
}

// appendRecord appends one record of the run stream, as RunWriter
// encodes it, before framing.
func appendRecord(dst []byte, seq uint64, key string, value []byte) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	return append(dst, value...)
}

// frames cuts a record stream into frames of at most size payload
// bytes, each with its length and a correct CRC.
func frames(stream []byte, size int) []byte {
	var out []byte
	for len(stream) > 0 {
		n := min(size, len(stream))
		out = binary.LittleEndian.AppendUint32(out, uint32(n))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(stream[:n], crcTable))
		out = append(out, stream[:n]...)
		stream = stream[n:]
	}
	return out
}

// readAll reads a run to its end and returns the values read and the
// error that ended it (io.EOF for a clean end).
func readAll(data []byte) ([][]byte, error) {
	rr := NewRunReader(bytes.NewReader(data))
	var vals [][]byte
	for {
		_, _, v, err := rr.Next()
		if err != nil {
			return vals, err
		}
		vals = append(vals, v)
	}
}

func TestRunFieldsCrossFrames(t *testing.T) {
	type rec struct {
		seq uint64
		key string
		val []byte
	}
	// pad makes a first record that leaves the next record's key or
	// value starting just before the first frame boundary.
	pad := func(at int) rec {
		p := maxFrame - at - 5 // 5 = seq, key len, 3-byte value len
		return rec{0, "", bytes.Repeat([]byte("p"), p)}
	}
	long := strings.Repeat("k", 100)
	cases := []struct {
		name string
		recs []rec
	}{
		{"key crosses a boundary", []rec{pad(2 + 10), {1, long, []byte("v")}, {2, "after", nil}}},
		{"value crosses a boundary", []rec{pad(2 + 100 + 1 + 10), {1, long, []byte(long)}, {2, "after", nil}}},
		{"value larger than a frame", []rec{{1, "big", bytes.Repeat([]byte("0123456789"), 3*maxFrame/10)}, {2, "after", []byte("x")}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stream []byte
			var buf bytes.Buffer
			rw := NewRunWriter(&buf)
			for _, r := range c.recs {
				stream = appendRecord(stream, r.seq, r.key, r.val)
				if err := rw.WriteRecord(r.seq, r.key, r.val); err != nil {
					t.Fatal(err)
				}
			}
			if err := rw.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), frames(stream, maxFrame)) {
				t.Fatal("RunWriter's bytes are not the record stream in full frames")
			}
			rr := NewRunReader(bytes.NewReader(buf.Bytes()))
			for i, w := range c.recs {
				seq, key, val, err := rr.Next()
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if seq != w.seq || key != w.key || !bytes.Equal(val, w.val) {
					t.Fatalf("record %d: got (%d, %d-byte key, %d-byte value), want (%d, %d, %d)",
						i, seq, len(key), len(val), w.seq, len(w.key), len(w.val))
				}
			}
			if _, _, _, err := rr.Next(); err != io.EOF {
				t.Fatalf("want io.EOF at end, got %v", err)
			}
		})
	}
	// The padding above must really put the second record's key (or
	// value) across the boundary.
	keyAt := len(appendRecord(nil, 0, "", cases[0].recs[0].val)) + 2
	valAt := len(appendRecord(nil, 0, "", cases[1].recs[0].val)) + 2 + 100 + 1
	if keyAt >= maxFrame || keyAt+100 <= maxFrame || valAt >= maxFrame || valAt+100 <= maxFrame {
		t.Fatalf("padding misplaced: key at %d, value at %d, boundary %d", keyAt, valAt, maxFrame)
	}
}

func TestRunReaderRejectsBadFrames(t *testing.T) {
	var stream []byte
	for i := 0; i < 20; i++ {
		stream = appendRecord(stream, uint64(i), fmt.Sprintf("k%d", i), []byte("value"))
	}
	valid := frames(stream, 64)
	if vals, err := readAll(valid); err != io.EOF || len(vals) != 20 {
		t.Fatalf("valid stream: %d records, %v", len(vals), err)
	}
	header := func(n, crc uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, n), crc)
	}
	huge := appendRecord(nil, 0, "k", make([]byte, maxFrame))
	flipped := append([]byte(nil), valid...)
	flipped[4] ^= 0x01 // the first frame's CRC
	cases := map[string][]byte{
		"frame length 0":            append(header(0, 0), valid...),
		"frame length above 64 KiB": frames(huge, maxFrame+1),
		"truncated payload":         valid[:len(valid)-3],
		"truncated header":          append(append([]byte(nil), valid...), header(5, 0)[:6]...),
		"flipped CRC byte":          flipped,
	}
	for name, data := range cases {
		vals, err := readAll(data)
		if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: read %d records and ended with %v, want a corruption error", name, len(vals), err)
		}
	}
}

// TestRunReaderRejectsLengthsPastTheStream: a CRC is not a MAC, so a
// frame can be valid and still declare a key or value far longer than
// the stream. The reader must fail without allocating the declared
// length.
func TestRunReaderRejectsLengthsPastTheStream(t *testing.T) {
	uv := binary.AppendUvarint
	cases := map[string][]byte{
		"key 2^62":             uv(uv(nil, 0), 1<<62),
		"key 2^30, 4 bytes":    append(uv(uv(nil, 0), 1<<30), "abcd"...),
		"value 2^62":           uv(uv(uv(nil, 0), 0), 1<<62),
		"value 2^30, 4 bytes":  append(uv(uv(uv(nil, 0), 0), 1<<30), "abcd"...),
		"value 2^30, 2 frames": append(uv(uv(uv(nil, 0), 0), 1<<30), bytes.Repeat([]byte("v"), maxFrame)...),
	}
	for name, stream := range cases {
		t.Run(name, func(t *testing.T) {
			data := frames(stream, maxFrame)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, _, err := NewRunReader(bytes.NewReader(data)).Next()
			runtime.ReadMemStats(&after)
			if err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("Next returned %v, want a truncation error", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("reading %d bytes allocated %d bytes", len(data), alloc)
			}
		})
	}
}
