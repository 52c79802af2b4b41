package extsort

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// FuzzRecordRoundTrip drives arbitrary records through the full
// RunWriter→RunReader stack (record codec + CRC framing) and requires
// exact reconstruction.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(0), "", []byte(nil), "k", []byte("v"))
	f.Add(uint64(1<<63), "key with spaces", []byte{0, 255, 10}, "", bytes.Repeat([]byte("ab"), 5000))
	f.Add(uint64(42), "dup", []byte("dup"), "dup", []byte("dup"))
	f.Fuzz(func(t *testing.T, seq uint64, k1 string, v1 []byte, k2 string, v2 []byte) {
		var buf bytes.Buffer
		rw := NewRunWriter(&buf)
		if err := rw.WriteRecord(seq, k1, v1); err != nil {
			t.Fatal(err)
		}
		if err := rw.WriteRecord(seq+1, k2, v2); err != nil {
			t.Fatal(err)
		}
		if err := rw.Flush(); err != nil {
			t.Fatal(err)
		}
		rr := NewRunReader(bytes.NewReader(buf.Bytes()))
		gs, gk, gv, err := rr.Next()
		if err != nil {
			t.Fatalf("first record: %v", err)
		}
		if gs != seq || gk != k1 || !bytes.Equal(gv, v1) {
			t.Fatalf("first record mismatch: (%d,%q,%q)", gs, gk, gv)
		}
		gs, gk, gv, err = rr.Next()
		if err != nil {
			t.Fatalf("second record: %v", err)
		}
		if gs != seq+1 || gk != k2 || !bytes.Equal(gv, v2) {
			t.Fatalf("second record mismatch: (%d,%q,%q)", gs, gk, gv)
		}
		if _, _, _, err := rr.Next(); err != io.EOF {
			t.Fatalf("want io.EOF, got %v", err)
		}
	})
}

// FuzzRunReaderArbitraryInput feeds arbitrary bytes to the reader, the
// one reader of spilled and shared-directory bytes: it must terminate
// with io.EOF or an error, never panic or loop. Arbitrary bytes rarely
// pass a frame's CRC; FuzzRunRecordsInValidFrames reaches the record
// decoder behind it.
func FuzzRunReaderArbitraryInput(f *testing.F) {
	// Seed with a valid stream and a few mutations of it.
	var buf bytes.Buffer
	rw := NewRunWriter(&buf)
	for i := 0; i < 50; i++ {
		rw.WriteRecord(uint64(i), "seed-key", []byte("seed value payload"))
	}
	rw.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	mut := append([]byte(nil), valid...)
	mut[3] ^= 0xff
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := NewRunReader(bytes.NewReader(data))
		for i := 0; i < 1<<20; i++ {
			_, _, _, err := rr.Next()
			if err != nil {
				return // EOF or corruption error — both acceptable
			}
		}
		t.Fatal("reader produced over a million records from fuzz input")
	})
}

// FuzzRunRecordsInValidFrames wraps arbitrary bytes in correctly
// checksummed frames of a fuzzed size, so the record decoder behind the
// CRC sees them. The reader must end in io.EOF or an error, never a
// panic, a million records, or more allocation than the input could
// justify: each record's key and value are copies of delivered bytes,
// and the reader's buffer grows geometrically with the frames a long
// record spans.
func FuzzRunRecordsInValidFrames(f *testing.F) {
	var stream []byte
	for i := 0; i < 50; i++ {
		stream = appendRecord(stream, uint64(i), "seed-key", []byte("seed value payload"))
	}
	f.Add(stream, uint16(7))
	f.Add(stream[:len(stream)/2], uint16(0))
	f.Add([]byte{0, 0x80, 0x80, 0x80, 0x80, 0x04, 'a', 'b', 'c', 'd'}, uint16(3))
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f}, uint16(1))
	f.Fuzz(func(t *testing.T, stream []byte, size uint16) {
		data := frames(stream, 1+int(size)%maxFrame)
		rr := NewRunReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 1<<20; i++ {
			if _, _, _, err := rr.Next(); err != nil {
				runtime.ReadMemStats(&after)
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(8*len(data)+16<<10) {
					t.Fatalf("reading %d framed bytes allocated %d bytes", len(data), alloc)
				}
				return
			}
		}
		t.Fatal("reader produced over a million records from fuzz input")
	})
}
