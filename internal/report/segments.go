package report

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"proger/internal/costmodel"
	"proger/internal/entity"
	"proger/internal/mapreduce"
)

// maxSegments caps the segments one reduce task's output is cut into:
// Result.Segments builds every α interval up to a task's last record,
// empty or not.
const maxSegments = 1 << 16

// WriteSegments materializes the paper's incremental result delivery
// (§III-B: "outputs the results to a different file every α units of
// cost"): each reduce task's duplicate output is cut into α-cost
// segments and written as one TSV file per segment, named
// task-TT.seg-SSSS.tsv. The resolution results at any time t are the
// union of all files whose segment closed by t — exactly how a consumer
// of the paper's system would read partial results off HDFS.
//
// Returns the number of files written. An α that would cut a task's
// output into more than maxSegments segments is rejected before any
// file is written.
func WriteSegments(res *mapreduce.Result, alpha costmodel.Units, dir string) (int, error) {
	if !(alpha > 0) {
		return 0, fmt.Errorf("report: -alpha must be positive, got %v", alpha)
	}
	for _, kv := range res.Output {
		if kv.Local/alpha >= maxSegments {
			return 0, fmt.Errorf("report: -alpha %v would cut task %d's output (local time %v) into more than %d segments; raise -alpha",
				alpha, kv.Task, kv.Local, maxSegments)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("report: %w", err)
	}
	tasks := map[int]bool{}
	for _, kv := range res.Output {
		tasks[kv.Task] = true
	}
	files := 0
	for task := range tasks {
		for _, seg := range res.Segments(task, alpha) {
			if len(seg.Records) == 0 {
				continue
			}
			name := filepath.Join(dir, fmt.Sprintf("task-%02d.seg-%04d.tsv", seg.Task, seg.Index))
			if err := writeSegmentFile(name, seg); err != nil {
				return files, err
			}
			files++
		}
	}
	return files, nil
}

func writeSegmentFile(name string, seg mapreduce.Segment) error {
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "#lo\thi\tlocal\tglobal\n")
	for _, rec := range seg.Records {
		p, _, err := entity.DecodePair(rec.Value)
		if err != nil {
			return fmt.Errorf("report: segment %s: %w", name, err)
		}
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\n", p.Lo, p.Hi, rec.Local, rec.Global)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
