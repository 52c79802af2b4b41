package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"proger/internal/membudget"
	"proger/internal/obs"
	"proger/internal/obs/quality"
)

// decodeEvents parses a JSON-lines event stream.
func decodeEvents(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

func TestEventLogFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Emit(EventRunStart, KV("entities", 9))
	l.Emit(EventTaskStart, KV("job", "j"), KV("phase", "map"), KV("task", 0))
	l.Emit(EventRunEnd)

	evs := decodeEvents(t, buf.Bytes())
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	wantNames := []string{EventRunStart, EventTaskStart, EventRunEnd}
	for i, ev := range evs {
		if ev["event"] != wantNames[i] {
			t.Errorf("event[%d] = %v, want %s", i, ev["event"], wantNames[i])
		}
		// slog's default time/level fields must be suppressed: wall-clock
		// data lives only in the segregated wall_ms field.
		if _, ok := ev["time"]; ok {
			t.Errorf("event[%d] leaks a time field: %v", i, ev)
		}
		if _, ok := ev["level"]; ok {
			t.Errorf("event[%d] leaks a level field: %v", i, ev)
		}
		if seq, ok := ev["seq"].(float64); !ok || int(seq) != i+1 {
			t.Errorf("event[%d] seq = %v, want %d", i, ev["seq"], i+1)
		}
		if _, ok := ev["wall_ms"].(float64); !ok {
			t.Errorf("event[%d] missing wall_ms: %v", i, ev)
		}
	}
	if evs[0]["entities"] != float64(9) {
		t.Errorf("run.start entities = %v", evs[0]["entities"])
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit(EventRunStart) // must not panic
}

func TestEventLogConcurrentSeq(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				l.Emit(EventTaskDone, KV("task", i))
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	evs := decodeEvents(t, buf.Bytes())
	if len(evs) != 400 {
		t.Fatalf("got %d events, want 400", len(evs))
	}
	for i, ev := range evs {
		if int(ev["seq"].(float64)) != i+1 {
			t.Fatalf("seq out of order at line %d: %v", i, ev["seq"])
		}
	}
}

func TestRunTaskLifecycleAndProgress(t *testing.T) {
	r := NewRun(nil)
	j := r.StartJob("job", 2, 1)
	if got := r.Progress(); got.Jobs[0].Phases[0].Pending != 2 {
		t.Fatalf("initial pending = %d, want 2", got.Jobs[0].Phases[0].Pending)
	}
	j.TaskStart(PhaseMap, 0)
	j.TaskStart(PhaseMap, 1)
	j.TaskDone(PhaseMap, 0, 10, 4)
	j.TaskFailed(PhaseMap, 1, fmt.Errorf("boom"))
	j.TaskStart(PhaseReduce, 0)
	j.TaskDone(PhaseReduce, 0, 30, 4)
	j.TaskStart(PhaseMap, 1) // a second execution begins
	r.ObserveResolution(6, 2, 30)
	r.Finish(nil)

	s := r.Progress()
	mp := s.Jobs[0].Phases[0]
	// The second execution moved task 1 back to running after its failure.
	if mp.Done != 1 || mp.Running != 1 {
		t.Errorf("map phase = %+v, want 1 done 1 running", mp)
	}
	if s.BlocksResolved != 1 || s.PairsCompared != 6 || s.Dups != 2 || s.RealizedCost != 30 {
		t.Errorf("resolution totals = %+v", s)
	}
	if !s.Done || s.Failed {
		t.Errorf("done/failed = %v/%v", s.Done, s.Failed)
	}

	rows := r.Tasks()
	if len(rows) != 3 { // 2 map + 1 reduce
		t.Fatalf("got %d task rows, want 3", len(rows))
	}
	if rows[0].State != "done" || rows[0].CostUnits != 10 || rows[0].Attempts != 1 {
		t.Errorf("map task 0 row = %+v", rows[0])
	}
	if rows[1].State != "running" || rows[1].Attempts != 2 {
		t.Errorf("map task 1 row = %+v", rows[1])
	}
}

func TestRunRecallEstimate(t *testing.T) {
	r := NewRun(nil)
	q := quality.NewRecorder()
	q.RecordPlan(quality.TaskPlan{Task: 0, EstCost: 100})
	q.RecordPrediction(quality.BlockPrediction{ID: "b", Dup: 4, Cost: 100})
	r.AttachQuality(q)
	r.ObserveResolution(10, 2, 60)
	s := r.Progress()
	if s.PredictedDups != 4 || s.RecallEstimate != 0.5 {
		t.Errorf("recall = %v (predicted %v), want 0.5 of 4", s.RecallEstimate, s.PredictedDups)
	}
	if s.ETACostUnits != 40 {
		t.Errorf("ETA = %v, want 40", s.ETACostUnits)
	}
	// The estimate clamps at 1 when realizations beat the prediction.
	r.ObserveResolution(10, 100, 100)
	if s := r.Progress(); s.RecallEstimate != 1 {
		t.Errorf("clamped recall = %v, want 1", s.RecallEstimate)
	}
	if s := r.Progress(); s.ETACostUnits != 0 {
		t.Errorf("ETA after overshoot = %v, want 0", s.ETACostUnits)
	}
}

func TestNilRunSafe(t *testing.T) {
	var r *Run
	if r.Enabled() {
		t.Error("nil run enabled")
	}
	j := r.StartJob("x", 1, 1) // nil job
	j.TaskStart(PhaseMap, 0)
	j.TaskDone(PhaseMap, 0, 1, 1)
	j.TaskFailed(PhaseMap, 0, fmt.Errorf("x"))
	j.End(nil)
	r.ObserveResolution(1, 1, 1)
	r.AttachQuality(nil)
	r.AttachBudget(nil)
	r.Finish(nil)
	if s := r.Progress(); len(s.Jobs) != 0 {
		t.Error("nil run progress has jobs")
	}
	if rows := r.Tasks(); rows != nil {
		t.Error("nil run tasks non-nil")
	}
	if b := r.Budget(); b != (membudget.Stats{}) {
		t.Error("nil run budget non-zero")
	}
}

func TestStatusServerEndpoints(t *testing.T) {
	r := NewRun(nil)
	j := r.StartJob("job", 1, 1)
	j.TaskStart(PhaseMap, 0)
	j.TaskDone(PhaseMap, 0, 7, 1)
	r.AttachBudget(membudget.New(1 << 20))
	reg := obs.NewRegistry()
	reg.Counter("mr.test.records").Add(5)

	srv, err := Serve("127.0.0.1:0", r, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (string, *http.Response) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body), resp
	}

	if body, _ := get("/healthz"); !strings.Contains(body, "running") {
		t.Errorf("/healthz = %q", body)
	}
	body, _ := get("/progress")
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].Phases[0].Done != 1 {
		t.Errorf("/progress snapshot = %+v", snap)
	}
	body, _ = get("/tasks")
	var rows []TaskRow
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("/tasks not JSON: %v", err)
	}
	if len(rows) != 2 {
		t.Errorf("/tasks rows = %d, want 2", len(rows))
	}
	body, _ = get("/membudget")
	var mb membudget.Stats
	if err := json.Unmarshal([]byte(body), &mb); err != nil {
		t.Fatalf("/membudget not JSON: %v", err)
	}
	if mb.Budget != 1<<20 {
		t.Errorf("/membudget budget = %d", mb.Budget)
	}
	body, resp := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "mr_test_records 5") {
		t.Errorf("/metrics = %q", body)
	}
	if body, _ := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	if body, _ := get("/"); !strings.Contains(body, "/progress") {
		t.Errorf("index = %q", body)
	}

	// A failed run must read as unhealthy at the status-code level (the
	// shared get helper insists on 200, so probe directly).
	r.Finish(fmt.Errorf("boom"))
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after failure: %v", err)
	}
	failBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz after failure: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(failBody), "failed") {
		t.Errorf("/healthz after failure = %q", failBody)
	}
}

func TestRelayEventLogBufferAndDrain(t *testing.T) {
	l := NewRelayEventLog(4)
	for i := 0; i < 6; i++ {
		l.Emit(EventTaskDone, KV("task", i))
	}
	// Two events past capacity were dropped without consuming seq.
	if d := l.Dropped(); d != 2 {
		t.Errorf("dropped = %d, want 2", d)
	}
	lines := l.Drain()
	if len(lines) != 4 {
		t.Fatalf("drained %d lines, want 4", len(lines))
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("relay line %q: %v", line, err)
		}
		if int(ev["seq"].(float64)) != i+1 {
			t.Errorf("relay line %d seq = %v, want %d (gap-free despite drops)", i, ev["seq"], i+1)
		}
		if ev["event"] != EventTaskDone {
			t.Errorf("relay line %d event = %v", i, ev["event"])
		}
	}
	// Post-drain emissions resume the same per-process seq stream.
	l.Emit(EventRunEnd)
	again := l.Drain()
	if len(again) != 1 {
		t.Fatalf("post-drain drained %d lines, want 1", len(again))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(again[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if int(ev["seq"].(float64)) != 5 {
		t.Errorf("post-drain seq = %v, want 5", ev["seq"])
	}
	if l.Drain() != nil {
		t.Error("empty relay drain returned lines")
	}
}

func TestRelayEventLogFlushSignal(t *testing.T) {
	l := NewRelayEventLog(4)
	select {
	case <-l.FlushC():
		t.Fatal("flush signaled before any events")
	default:
	}
	l.Emit(EventTaskStart, KV("task", 0))
	l.Emit(EventTaskDone, KV("task", 0)) // passes half capacity
	select {
	case <-l.FlushC():
	default:
		t.Error("flush not signaled at half capacity")
	}
	// Non-relay and nil logs expose a nil (never-ready) channel.
	if NewEventLog(io.Discard).FlushC() != nil {
		t.Error("writer-backed log has a flush channel")
	}
	var nilLog *EventLog
	if nilLog.FlushC() != nil {
		t.Error("nil log has a flush channel")
	}
	if nilLog.Drain() != nil || nilLog.Dropped() != 0 {
		t.Error("nil log drain/dropped not zero")
	}
}

func TestEmitForwarded(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Emit(EventRunStart)
	l.EmitForwarded("w1", []string{
		`{"event":"task.done","task":3,"seq":7,"wall_ms":12}`,
		"not json", // refused, not merged
	})
	l.Emit(EventRunEnd)

	evs := decodeEvents(t, buf.Bytes())
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	fwd := evs[1]
	if fwd["proc"] != "w1" || fwd["event"] != "task.done" {
		t.Errorf("forwarded event = %v", fwd)
	}
	// The originating process's seq and wall_ms pass through untouched.
	if int(fwd["seq"].(float64)) != 7 || int(fwd["wall_ms"].(float64)) != 12 {
		t.Errorf("forwarded seq/wall_ms = %v/%v, want 7/12", fwd["seq"], fwd["wall_ms"])
	}
	// Host events carry no proc key, and the host seq stream ignores
	// forwarded lines (run.start=1, run.end=2).
	for _, i := range []int{0, 2} {
		if _, ok := evs[i]["proc"]; ok {
			t.Errorf("host event %d carries proc: %v", i, evs[i])
		}
	}
	if int(evs[2]["seq"].(float64)) != 2 {
		t.Errorf("host seq after forward = %v, want 2", evs[2]["seq"])
	}
	// Relay logs have no writer: forwarding into one is a no-op.
	NewRelayEventLog(0).EmitForwarded("w2", []string{`{"event":"x","seq":1}`})
	var nilLog *EventLog
	nilLog.EmitForwarded("w1", []string{`{"event":"x","seq":1}`})
}

// staticFleet is a canned FleetProvider for endpoint tests.
type staticFleet struct{ fs FleetSnapshot }

func (s staticFleet) FleetSnapshot() FleetSnapshot { return s.fs }

func TestFleetAttachAndEndpoint(t *testing.T) {
	r := NewRun(nil)
	if fs := r.Fleet(); len(fs.Workers) != 0 {
		t.Errorf("unattached fleet = %+v", fs)
	}
	var nilRun *Run
	nilRun.AttachFleet(staticFleet{})
	if fs := nilRun.Fleet(); len(fs.Workers) != 0 {
		t.Errorf("nil run fleet = %+v", fs)
	}

	tel := &WorkerTelemetry{MapTasks: 2, RPCBytesIn: 100}
	r.AttachFleet(staticFleet{fs: FleetSnapshot{
		Workers: []FleetWorker{
			{ID: 1, Alive: true, LeasesGranted: 5, Telemetry: tel},
			{ID: 2, Alive: false, LeasesGranted: 3, LeasesExpired: 1},
		},
		Alive: 1, Dead: 1,
	}})

	srv, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatalf("/fleet not JSON: %v", err)
	}
	if len(fs.Workers) != 2 || fs.Alive != 1 || fs.Dead != 1 {
		t.Fatalf("/fleet snapshot = %+v", fs)
	}
	if fs.Workers[0].Telemetry == nil || fs.Workers[0].Telemetry.MapTasks != 2 {
		t.Errorf("/fleet worker 1 telemetry = %+v", fs.Workers[0].Telemetry)
	}
	if fs.Workers[1].Telemetry != nil || fs.Workers[1].LeasesExpired != 1 {
		t.Errorf("/fleet worker 2 row = %+v", fs.Workers[1])
	}
}

func TestProgressRenderer(t *testing.T) {
	r := NewRun(nil)
	j := r.StartJob("job", 2, 1)
	j.TaskStart(PhaseMap, 0)
	j.TaskDone(PhaseMap, 0, 5, 1)
	r.ObserveResolution(3, 1, 5)
	var buf bytes.Buffer
	p := StartProgress(&buf, r, 1e6) // effectively manual: Stop draws the final frame
	p.Stop()
	p.Stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "maps 1/2") || !strings.Contains(out, "dups 1") {
		t.Errorf("progress line = %q", out)
	}
	// Nil handles no-op.
	StartProgress(nil, r, 0).Stop()
	StartProgress(&buf, nil, 0).Stop()
}
