package report

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proger/internal/costmodel"
	"proger/internal/entity"
	"proger/internal/mapreduce"
)

func fakeResult() *mapreduce.Result {
	return &mapreduce.Result{
		Start:           100,
		MapEnd:          200,
		End:             500,
		MapTaskCosts:    []costmodel.Units{50, 60},
		ReduceTaskCosts: []costmodel.Units{300, 150, 200},
		ReduceStarts:    []costmodel.Units{200, 200, 200},
		Counters:        mapreduce.Counters{"b.count": 2, "a.count": 1},
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize("demo", fakeResult())
	if s.MapTasks != 2 || s.ReduceTasks != 3 {
		t.Errorf("tasks = %d/%d", s.MapTasks, s.ReduceTasks)
	}
	if s.MaxReduceCost != 300 || s.MinReduceCost != 150 {
		t.Errorf("min/max = %v/%v", s.MinReduceCost, s.MaxReduceCost)
	}
	wantMean := costmodel.Units(650) / 3
	if s.MeanReduceCost < wantMean-1 || s.MeanReduceCost > wantMean+1 {
		t.Errorf("mean = %v", s.MeanReduceCost)
	}
	if s.ReduceImbalance < 1.3 || s.ReduceImbalance > 1.5 {
		t.Errorf("imbalance = %v", s.ReduceImbalance)
	}
	out := s.Render()
	for _, needle := range []string{"job demo", "2 map, 3 reduce", "imbalance"} {
		if !strings.Contains(out, needle) {
			t.Errorf("render missing %q:\n%s", needle, out)
		}
	}
}

func TestSummarizeEmptyReduce(t *testing.T) {
	res := &mapreduce.Result{Start: 0, End: 10}
	s := Summarize("empty", res)
	if s.ReduceImbalance != 0 {
		t.Errorf("imbalance = %v", s.ReduceImbalance)
	}
	if !strings.Contains(s.Render(), "0 map, 0 reduce") {
		t.Error("render")
	}
}

func TestTimeline(t *testing.T) {
	out := Timeline(fakeResult(), 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 tasks
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Task 0 is the longest (300 of 400 span): most of its row is '#'.
	if strings.Count(lines[1], "#") <= strings.Count(lines[2], "#") {
		t.Errorf("task 0 should have the longest bar:\n%s", out)
	}
	// All bars start after the map barrier (25% into the window).
	for _, l := range lines[1:] {
		bar := l[strings.Index(l, "|")+1:]
		first := strings.Index(bar, "#")
		if first >= 0 && first < 40/5 {
			t.Errorf("bar starts before the map barrier:\n%s", out)
		}
	}
}

func TestTimelineDegenerate(t *testing.T) {
	if out := Timeline(&mapreduce.Result{}, 40); !strings.Contains(out, "no reduce tasks") {
		t.Errorf("degenerate timeline: %q", out)
	}
}

func TestTopBlocks(t *testing.T) {
	costs := map[string]costmodel.Units{"small": 10, "big": 500, "mid": 100}
	out := TopBlocks(costs, 2)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "big") || !strings.Contains(lines[1], "mid") {
		t.Errorf("top blocks order:\n%s", out)
	}
	// k beyond len is clamped.
	if got := TopBlocks(costs, 10); strings.Count(got, "\n") != 3 {
		t.Errorf("clamped top blocks:\n%s", got)
	}
}

func TestWriteSegments(t *testing.T) {
	// A fake result with two duplicate events on one task at local
	// costs 5 and 25 → two α=10 segments.
	pair1 := entity.EncodePair(nil, entity.MakePair(0, 1))
	pair2 := entity.EncodePair(nil, entity.MakePair(2, 3))
	res := &mapreduce.Result{
		Output: []mapreduce.TimedKV{
			{KeyValue: mapreduce.KeyValue{Key: "dup", Value: pair1}, Local: 5, Global: 105, Task: 0},
			{KeyValue: mapreduce.KeyValue{Key: "dup", Value: pair2}, Local: 25, Global: 125, Task: 0},
		},
	}
	dir := t.TempDir()
	n, err := WriteSegments(res, 10, dir)
	if err != nil {
		t.Fatalf("WriteSegments: %v", err)
	}
	if n != 2 {
		t.Fatalf("files = %d, want 2", n)
	}
	first, err := os.ReadFile(filepath.Join(dir, "task-00.seg-0000.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), "0\t1\t5.0\t105.0") {
		t.Errorf("first segment:\n%s", first)
	}
	third, err := os.ReadFile(filepath.Join(dir, "task-00.seg-0002.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(third), "2\t3\t25.0") {
		t.Errorf("segment 2:\n%s", third)
	}
	if _, err := WriteSegments(res, 0, dir); err == nil {
		t.Error("alpha 0: want error")
	}
}

// TestWriteSegmentsRejectsTinyAlpha: an α that is not positive, or
// that would cut a task's output into more than maxSegments segments,
// is refused with an error naming the flag; the finest α that fits is
// written.
func TestWriteSegmentsRejectsTinyAlpha(t *testing.T) {
	pair := entity.EncodePair(nil, entity.MakePair(0, 1))
	res := &mapreduce.Result{Output: []mapreduce.TimedKV{
		{KeyValue: mapreduce.KeyValue{Key: "dup", Value: pair}, Local: 25, Global: 125, Task: 0},
	}}
	for _, alpha := range []float64{0, math.NaN(), 25.0 / maxSegments} {
		if _, err := WriteSegments(res, alpha, t.TempDir()); err == nil || !strings.Contains(err.Error(), "-alpha") {
			t.Errorf("alpha %v: error %v, want one naming -alpha", alpha, err)
		}
	}
	if n, err := WriteSegments(res, 25.0/(maxSegments-1), t.TempDir()); err != nil || n != 1 {
		t.Errorf("alpha for %d segments: %d files, %v", maxSegments, n, err)
	}
}
