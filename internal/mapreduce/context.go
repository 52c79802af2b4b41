package mapreduce

import (
	"fmt"
	"sort"

	"proger/internal/costmodel"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

// TaskContext is the per-task environment handed to Mapper and Reducer
// methods: identity, the cost model, the cost clock, and counters. It is not
// safe for concurrent use by multiple goroutines (a task is a single
// logical thread, as in Hadoop).
type TaskContext struct {
	Job       string
	Type      live.Phase
	Index     int
	NumReduce int
	// Cost is the job's cost model, for tasks that price their own work.
	Cost costmodel.Model

	local    costmodel.Units
	counters Counters
	// tracing is set by the engine when Config.Trace is non-nil; spans
	// collects the task's local-clock spans for the engine to rebase
	// onto the global timeline once the task's start time is known.
	tracing bool
	spans   []obs.Span
	// quality is set for reduce tasks when Config.Quality is non-nil;
	// qobs buffers the task's block observations — like spans, they are
	// part of the task's deterministic result.
	quality bool
	qobs    []quality.BlockObs
	// lv is Config.Live for reduce tasks: block observations stream
	// into it the moment they are recorded (not at job end), feeding
	// the live progressive-recall estimate. Unlike qobs, the stream is
	// per-execution — a re-dispatched lease feeds it again — so it is
	// advisory by design, never part of any artifact.
	lv *live.Run
}

// Charge adds cost units to the task's local clock. All task work that
// should take simulated time must be charged here.
func (c *TaskContext) Charge(u costmodel.Units) {
	if u < 0 {
		panic(fmt.Sprintf("mapreduce: negative charge %v in %s task %d", u, c.Type, c.Index))
	}
	c.local += u
}

// Now returns the task-local elapsed cost.
func (c *TaskContext) Now() costmodel.Units { return c.local }

// Inc increments a named counter.
func (c *TaskContext) Inc(name string, delta int64) {
	if c.counters == nil {
		c.counters = Counters{}
	}
	c.counters[name] += delta
}

// Tracing reports whether the job is collecting trace spans. Guard
// span-argument construction behind it so tracing costs nothing when
// disabled:
//
//	if ctx.Tracing() {
//	    ctx.Span("resolve", name, start, ctx.Now(), obs.A("pairs", n))
//	}
func (c *TaskContext) Tracing() bool { return c.tracing }

// Span records a completed span [start, end) on the task's *local*
// simulated clock (ctx.Now() values). The engine rebases it onto the
// global timeline — and assigns its process/slot lanes — once the
// task's scheduled start is known. No-op when tracing is disabled.
func (c *TaskContext) Span(cat, name string, start, end costmodel.Units, args ...obs.Arg) {
	if !c.tracing {
		return
	}
	c.spans = append(c.spans, obs.Span{
		Cat:   cat,
		Name:  name,
		Start: start,
		Dur:   end - start,
		Args:  args,
	})
}

// QualityOn reports whether the job is collecting quality telemetry —
// through the quality recorder, the live introspection layer, or both.
// Guard BlockObs construction behind it so telemetry costs nothing
// when disabled, mirroring Tracing.
func (c *TaskContext) QualityOn() bool { return c.quality || c.lv.Enabled() }

// ObserveBlock records one resolved block's realization with Start/End
// on the task's *local* simulated clock (ctx.Now() values). The engine
// rebases it onto the global timeline — and stamps the owning task —
// once the task's scheduled start is known. With live introspection
// attached, the observation additionally streams into the live layer
// immediately (duration is clock-base independent, so no rebasing is
// needed there). No-op when both sinks are disabled.
func (c *TaskContext) ObserveBlock(o quality.BlockObs) {
	c.lv.ObserveResolution(o.Compared, o.Dups, float64(o.End-o.Start))
	if !c.quality {
		return
	}
	c.qobs = append(c.qobs, o)
}

// Counters is a named-counter aggregate, as in Hadoop job counters.
type Counters map[string]int64

// Merge adds all of other into c, allocating the receiver's map if it
// is nil (so a zero-valued Counters field can absorb merges directly).
func (c *Counters) Merge(other Counters) {
	if len(other) == 0 {
		return
	}
	if *c == nil {
		*c = make(Counters, len(other))
	}
	for k, v := range other {
		(*c)[k] += v
	}
}

// Clone returns an independent copy of the counters (nil for nil).
func (c Counters) Clone() Counters {
	if c == nil {
		return nil
	}
	out := make(Counters, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Get returns the counter value (0 if absent).
func (c Counters) Get(name string) int64 { return c[name] }

// Names returns the counter names in sorted order.
func (c Counters) Names() []string {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
