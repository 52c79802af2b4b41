// Package extsort holds the two pieces of an external merge that the
// MapReduce shuffle builds on, mirroring Hadoop's spill-and-merge: the
// run-file codec (RunWriter/RunReader: length-prefixed (seq, key,
// value) records over the compressed, CRC-framed blocks of compress.go)
// and Merger, a stable k-way merge of pre-sorted sources (merge.go).
// The engine's budget-governed shuffle store writes its spilled runs
// with the codec and merges them back with Merger; the distributed
// transport's shared-directory run files use the same codec.
//
// Stability matters: the engine requires that records with equal keys
// surface in map-task order, so every record carries a merge priority
// in its seq field and merges compare (key, seq).
package extsort

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// RunWriter encodes records into a compressed, CRC-framed run stream.
// Flush must be called before the underlying writer is closed; records
// written after Flush are lost.
type RunWriter struct {
	fw *blockWriter
	w  *bufio.Writer
}

// NewRunWriter wraps w. The caller retains ownership of w and must
// close it (after Flush) itself.
func NewRunWriter(w io.Writer) *RunWriter {
	fw := newBlockWriter(w)
	return &RunWriter{fw: fw, w: bufio.NewWriterSize(fw, 1<<15)}
}

// WriteRecord appends one record: seq, key length, key, value length,
// value. seq is the stable-merge tiebreaker surfaced again by
// RunReader.Next.
func (rw *RunWriter) WriteRecord(seq uint64, key string, value []byte) error {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], seq)
	n += binary.PutUvarint(hdr[n:], uint64(len(key)))
	if _, err := rw.w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("extsort: writing record: %w", err)
	}
	if _, err := rw.w.WriteString(key); err != nil {
		return fmt.Errorf("extsort: writing key: %w", err)
	}
	n = binary.PutUvarint(hdr[:], uint64(len(value)))
	if _, err := rw.w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("extsort: writing record: %w", err)
	}
	if _, err := rw.w.Write(value); err != nil {
		return fmt.Errorf("extsort: writing value: %w", err)
	}
	return nil
}

// Flush drains buffered records and emits the final partial block.
func (rw *RunWriter) Flush() error {
	if err := rw.w.Flush(); err != nil {
		return err
	}
	return rw.fw.Close()
}

// RunReader decodes a stream produced by RunWriter.
type RunReader struct {
	r *bufio.Reader
}

// NewRunReader wraps r; the caller retains ownership of r.
func NewRunReader(r io.Reader) *RunReader {
	return &RunReader{r: bufio.NewReaderSize(newBlockReader(r), 1<<15)}
}

// Next returns the next record, or io.EOF at the clean end of the
// stream. Any other error means a truncated or corrupt run.
func (rr *RunReader) Next() (seq uint64, key string, value []byte, err error) {
	seq, err = binary.ReadUvarint(rr.r)
	if err != nil {
		if err == io.EOF {
			return 0, "", nil, io.EOF // clean end of run
		}
		return 0, "", nil, fmt.Errorf("extsort: truncated run (seq): %w", err)
	}
	kl, err := binary.ReadUvarint(rr.r)
	if err != nil {
		return 0, "", nil, fmt.Errorf("extsort: truncated run (key len): %w", err)
	}
	k := make([]byte, kl)
	if _, err := io.ReadFull(rr.r, k); err != nil {
		return 0, "", nil, fmt.Errorf("extsort: truncated run (key): %w", err)
	}
	vl, err := binary.ReadUvarint(rr.r)
	if err != nil {
		return 0, "", nil, fmt.Errorf("extsort: truncated run (value len): %w", err)
	}
	value = make([]byte, vl)
	if _, err := io.ReadFull(rr.r, value); err != nil {
		return 0, "", nil, fmt.Errorf("extsort: truncated run (value): %w", err)
	}
	return seq, string(k), value, nil
}
