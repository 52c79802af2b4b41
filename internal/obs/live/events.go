package live

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// Event names. Like the telemetry counter keys, these are exported
// constants so emit sites never embed string literals (the check.sh
// lint enforces it).
const (
	EventRunStart   = "run.start"
	EventRunEnd     = "run.end"
	EventJobStart   = "job.start"
	EventJobEnd     = "job.end"
	EventTaskStart  = "task.start"
	EventTaskDone   = "task.done"
	EventTaskFailed = "task.failed"
	// Distributed-runtime events, emitted by the master's lease ledger:
	// a worker process registering, a task lease being granted, and a
	// lease expiring after its worker went silent. All host-side — they
	// never appear in single-process runs and carry no simulated state.
	EventWorkerRegister = "worker.register"
	EventLease          = "lease"
	EventLeaseExpire    = "lease.expire"
)

// EventLog is a structured JSON event stream over log/slog: one JSON
// object per line, `event` naming the event, followed by the emitter's
// attributes. Events split into two field classes:
//
//   - the *deterministic subset* — event name plus emitter attributes
//     (job, phase, task, cost_units, …), all derived from the simulated
//     execution and identical across hosts for a fixed engine/worker
//     topology;
//   - *wall-clock fields*, segregated under reserved names: `seq` (a
//     process-local emission sequence number) and `wall_ms` (host
//     milliseconds since the log was created). Strip these two keys and
//     what remains is the deterministic subset.
//
// A multi-process fleet adds one more identity key: events forwarded
// from a worker process and merged into the master's log via
// EmitForwarded carry `proc` ("w<id>"); the master's own events carry
// none. `seq` is per-process — gap-free within each proc stream — so
// the merged file interleaves streams without renumbering them.
//
// Emission order between concurrent tasks follows host scheduling, so
// determinism of the *set* of events (not their order) is the
// contract; scripts/tracecheck -events validates the structure. The
// slog JSON handler serializes writes internally, so an EventLog is
// safe for concurrent emitters.
type EventLog struct {
	logger    *slog.Logger
	w         io.Writer // retained for EmitForwarded merges (nil in relay mode)
	wallStart time.Time

	// mu serializes seq assignment with the handler write so seq is
	// strictly increasing in output order (the slog handler alone would
	// only serialize the writes, not the numbering). EmitForwarded
	// writes under the same mutex, so merged lines never tear.
	mu  sync.Mutex
	seq int64

	// Relay mode (NewRelayEventLog): emitted lines buffer in memory —
	// bounded by relayCap — until Drain ships them to another process.
	// An event dropped at capacity does NOT consume a seq, so the
	// admitted stream stays gap-free even under overflow.
	relayCap int
	buf      []string
	dropped  int64
	flush    chan struct{}
}

// stripWallAttrs is the slog attribute rewrite shared by every EventLog
// flavor: drop time/level (wall-clock lives in wall_ms; level carries
// nothing), rename msg to event.
func stripWallAttrs(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch a.Key {
	case slog.TimeKey, slog.LevelKey:
		return slog.Attr{}
	case slog.MessageKey:
		return slog.String("event", a.Value.String())
	}
	return a
}

// NewEventLog returns an event log writing JSON lines to w. Nil is a
// valid disabled log (Emit no-ops).
func NewEventLog(w io.Writer) *EventLog {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{ReplaceAttr: stripWallAttrs})
	return &EventLog{logger: slog.New(h), w: w, wallStart: time.Now()}
}

// NewRelayEventLog returns an event log that buffers emitted lines in
// memory instead of writing them anywhere: a worker process's local
// event stream, drained in batches (Drain) and shipped to the master
// piggybacked on heartbeats. The buffer holds at most capacity lines;
// an event emitted against a full buffer is counted in Dropped and
// does not consume a sequence number, so the admitted stream keeps a
// gap-free per-process seq — the invariant the merged multi-process
// grammar checks. FlushC signals when the buffer passes half capacity
// so the owner can flush early instead of waiting for the next beat.
func NewRelayEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 8192
	}
	l := &EventLog{
		wallStart: time.Now(),
		relayCap:  capacity,
		flush:     make(chan struct{}, 1),
	}
	h := slog.NewJSONHandler(relaySink{l}, &slog.HandlerOptions{ReplaceAttr: stripWallAttrs})
	l.logger = slog.New(h)
	return l
}

// relaySink receives the JSON handler's line writes under l.mu (Emit
// holds the mutex across the slog call) and appends them to the relay
// buffer.
type relaySink struct{ l *EventLog }

func (s relaySink) Write(p []byte) (int, error) {
	line := p
	for len(line) > 0 && line[len(line)-1] == '\n' {
		line = line[:len(line)-1]
	}
	if len(line) > 0 {
		s.l.buf = append(s.l.buf, string(line))
	}
	return len(p), nil
}

// KV builds one event attribute. It exists so emit sites read as
// KV("task", i) rather than importing slog themselves.
func KV(key string, value any) slog.Attr { return slog.Any(key, value) }

// Emit writes one event line: the deterministic attributes first, then
// the segregated wall-clock fields seq and wall_ms. Safe on a nil log
// and from concurrent goroutines.
func (l *EventLog) Emit(event string, attrs ...slog.Attr) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.relayCap > 0 && len(l.buf) >= l.relayCap {
		l.dropped++
		return
	}
	l.seq++
	attrs = append(attrs,
		slog.Int64("seq", l.seq),
		slog.Int64("wall_ms", time.Since(l.wallStart).Milliseconds()))
	l.logger.LogAttrs(context.Background(), slog.LevelInfo, event, attrs...)
	if l.relayCap > 0 && len(l.buf) >= l.relayCap/2 {
		select {
		case l.flush <- struct{}{}:
		default:
		}
	}
}

// Drain takes every buffered relay line, emptying the buffer. Returns
// nil on a nil or non-relay log.
func (l *EventLog) Drain() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.buf
	l.buf = nil
	return out
}

// Dropped reports how many events a relay log discarded at capacity.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// FlushC returns the relay log's early-flush signal: it receives when
// the buffer passes half capacity. Nil (blocks forever in a select)
// for a nil or non-relay log.
func (l *EventLog) FlushC() <-chan struct{} {
	if l == nil {
		return nil
	}
	return l.flush
}

// EmitForwarded merges event lines relayed from another process into
// this log, tagging each with its process identity: the forwarded
// line's leading "{" becomes `{"proc":"<proc>",`, everything else —
// including the originating process's own seq and wall_ms — passes
// through untouched. Writes are serialized with local emissions under
// the same mutex, so merged lines never interleave mid-record. No-op
// on a nil log or one without an underlying writer (relay logs do not
// re-relay).
func (l *EventLog) EmitForwarded(proc string, lines []string) {
	if l == nil || l.w == nil || len(lines) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range lines {
		if len(line) < 3 || line[0] != '{' {
			continue // not a JSON event line; refuse to corrupt the log
		}
		fmt.Fprintf(l.w, "{\"proc\":%q,%s\n", proc, line[1:])
	}
}
