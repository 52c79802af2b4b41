// Package extsort is the run-file codec the MapReduce shuffle keeps its
// runs on disk with, mirroring Hadoop's map-output segments: RunWriter
// and RunReader, (seq, key, value) records in checksummed frames. A
// file holds runs as segments, one stream each: the engine's
// budget-governed shuffle store appends each spilled run to its spill
// file, and a distributed map task writes its run for every partition
// to its one shared-directory file; the reduce side's one k-way merge
// reads the segments back.
//
// A run file is a record stream cut into frames:
//
//	frame  := length (4B LE) crc32c(payload) (4B LE) payload
//	record := uvarint(seq) uvarint(len(key)) key uvarint(len(value)) value
//
// A frame's payload holds 1 to maxFrame bytes of the stream, stored as
// they are; records cross frame boundaries freely. The CRC catches media
// corruption and torn writes. It is not a MAC, so the reader also trusts
// no declared record length beyond the bytes the stream has delivered.
//
// Stability matters: the engine requires that records with equal keys
// surface in map-task order. Every record of a run file carries the
// index of the map task that produced it in its seq field, and the
// merge checks it against the run it reads.
package extsort

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

const (
	// frameHeader is the length and CRC in front of every payload.
	frameHeader = 8
	// maxFrame bounds a frame's payload, and so the writer's buffer.
	maxFrame = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RunWriter encodes records into a run stream. Records are appended
// straight into the frame buffer, which goes to the underlying writer
// in one Write each time it fills; Flush writes the last partial frame
// and must be called before the underlying writer is closed.
type RunWriter struct {
	w io.Writer
	// buf is the frame being filled: header room, then payload.
	buf []byte
}

// NewRunWriter wraps w. The caller retains ownership of w and must
// close it (after Flush) itself.
func NewRunWriter(w io.Writer) *RunWriter {
	return &RunWriter{w: w, buf: make([]byte, frameHeader, frameHeader+maxFrame)}
}

// Reset discards what rw has buffered and makes it write to w, so that
// one writer, and its frame buffer, serves one file after another.
func (rw *RunWriter) Reset(w io.Writer) {
	rw.w, rw.buf = w, rw.buf[:frameHeader]
}

// WriteRecord appends one record: seq, key length, key, value length,
// value. seq is the stable-merge tiebreaker surfaced again by
// RunReader.Next.
func (rw *RunWriter) WriteRecord(seq uint64, key string, value []byte) error {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], seq)
	n += binary.PutUvarint(hdr[n:], uint64(len(key)))
	if err := put(rw, hdr[:n]); err != nil {
		return err
	}
	if err := put(rw, key); err != nil {
		return err
	}
	n = binary.PutUvarint(hdr[:], uint64(len(value)))
	if err := put(rw, hdr[:n]); err != nil {
		return err
	}
	return put(rw, value)
}

// put appends p to the stream, writing each frame as it fills.
func put[S string | []byte](rw *RunWriter, p S) error {
	for {
		n := copy(rw.buf[len(rw.buf):cap(rw.buf)], p)
		rw.buf = rw.buf[:len(rw.buf)+n]
		if p = p[n:]; len(p) == 0 {
			return nil
		}
		if err := rw.Flush(); err != nil {
			return err
		}
	}
}

// Flush writes the buffered records as one frame; with nothing
// buffered it writes nothing.
func (rw *RunWriter) Flush() error {
	payload := rw.buf[frameHeader:]
	if len(payload) == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(rw.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rw.buf[4:], crc32.Checksum(payload, crcTable))
	_, err := rw.w.Write(rw.buf)
	rw.buf = rw.buf[:frameHeader]
	if err != nil {
		return fmt.Errorf("extsort: writing frame: %w", err)
	}
	return nil
}

// RunReader decodes a stream produced by RunWriter straight out of the
// frames it reads.
type RunReader struct {
	r   io.Reader
	hdr [frameHeader]byte
	// buf holds the unread stream: a record cut off by the end of one
	// frame, then the frames read after it; pos is its first unread byte.
	buf []byte
	pos int
}

// NewRunReader wraps r; the caller retains ownership of r.
func NewRunReader(r io.Reader) *RunReader {
	return &RunReader{r: r}
}

// Reset discards what rr has read and makes it read r, keeping its
// buffer: the records Next returned are their caller's own.
func (rr *RunReader) Reset(r io.Reader) {
	rr.r, rr.buf, rr.pos = r, rr.buf[:0], 0
}

// fill moves the unread bytes to the front of buf and appends the next
// frame's payload after checking its CRC. It returns io.EOF only when
// the stream ends between frames. buf grows only by frames delivered,
// so a declared record length past the end of the stream fails here
// before it is allocated.
func (rr *RunReader) fill() error {
	if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("extsort: truncated frame header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(rr.hdr[0:]))
	if n == 0 || n > maxFrame {
		return fmt.Errorf("extsort: corrupt frame length %d", n)
	}
	rest := copy(rr.buf, rr.buf[rr.pos:])
	rr.buf, rr.pos = slices.Grow(rr.buf[:rest], n)[:rest+n], 0
	payload := rr.buf[rest:]
	if _, err := io.ReadFull(rr.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		rr.buf = rr.buf[:rest]
		return fmt.Errorf("extsort: truncated frame: %w", err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(rr.hdr[4:]); got != want {
		rr.buf = rr.buf[:rest]
		return fmt.Errorf("extsort: frame CRC mismatch (got %08x, want %08x)", got, want)
	}
	return nil
}

// Next returns the next record, or io.EOF at the clean end of the
// stream. Any other error means a truncated or corrupt run. The key
// and value are the caller's own.
func (rr *RunReader) Next() (seq uint64, key string, value []byte, err error) {
	for {
		seq, k, v, n := decodeRecord(rr.buf[rr.pos:])
		if n > 0 {
			rr.pos += n
			value = make([]byte, len(v))
			copy(value, v)
			return seq, string(k), value, nil
		}
		if n < 0 {
			return 0, "", nil, fmt.Errorf("extsort: corrupt run (varint overflow)")
		}
		if err := rr.fill(); err != nil {
			if err == io.EOF && rr.pos < len(rr.buf) {
				err = fmt.Errorf("extsort: truncated run (%d bytes of a record): %w", len(rr.buf)-rr.pos, io.ErrUnexpectedEOF)
			}
			return 0, "", nil, err
		}
	}
}

// decodeRecord decodes the record at the front of b, returning its
// length n; n is 0 when b holds only part of it and negative when a
// varint overflows. key and value alias b.
func decodeRecord(b []byte) (seq uint64, key, value []byte, n int) {
	seq, n = binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, nil, n
	}
	kl, k := binary.Uvarint(b[n:])
	if k <= 0 {
		return 0, nil, nil, k
	}
	if n += k; kl > uint64(len(b)-n) {
		return 0, nil, nil, 0
	}
	key, n = b[n:n+int(kl)], n+int(kl)
	vl, k := binary.Uvarint(b[n:])
	if k <= 0 {
		return 0, nil, nil, k
	}
	if n += k; vl > uint64(len(b)-n) {
		return 0, nil, nil, 0
	}
	return seq, key, b[n : n+int(vl)], n + int(vl)
}
