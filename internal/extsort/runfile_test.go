package extsort

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
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

func TestRunCompressionShrinksRepetitiveData(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRunWriter(&buf)
	raw := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("block-%03d", i%7)
		val := []byte(strings.Repeat("duplicate entity encoding ", 4))
		raw += len(key) + len(val)
		if err := rw.WriteRecord(uint64(i), key, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= raw/2 {
		t.Errorf("compressed run %d bytes for %d raw bytes — expected ≥ 2× shrink on repetitive data", buf.Len(), raw)
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

func TestCompressRoundTripBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var c compressor
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("abcd"),
		bytes.Repeat([]byte("x"), compressBlockSize),                       // max RLE
		bytes.Repeat([]byte("abcdefgh"), 1000),                             // periodic
		[]byte(strings.Repeat("the quick brown fox ", 200)),                // text
		func() []byte { b := make([]byte, 4096); rng.Read(b); return b }(), // incompressible
	}
	for i, raw := range cases {
		comp := c.compress(nil, raw)
		got, err := decompress(nil, comp, len(raw))
		if err != nil {
			t.Fatalf("case %d: decompress: %v", i, err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("case %d: round trip mismatch (%d bytes in, %d out)", i, len(raw), len(got))
		}
	}
}
