// Package report renders human-readable diagnostics for pipeline runs:
// a per-job summary (phases, task utilization), an ASCII Gantt timeline
// of the simulated task schedule, and the run summary, whose metrics
// section lists every job counter. This is the
// operational visibility a production deployment would get from the
// Hadoop job tracker UI.
package report

import (
	"fmt"
	"sort"
	"strings"

	"proger/internal/costmodel"
	"proger/internal/mapreduce"
)

// JobSummary condenses one MapReduce job's result.
type JobSummary struct {
	Name            string
	Start, MapEnd   costmodel.Units
	End             costmodel.Units
	MapTasks        int
	ReduceTasks     int
	MaxReduceCost   costmodel.Units
	MinReduceCost   costmodel.Units
	MeanReduceCost  costmodel.Units
	ReduceImbalance float64 // max/mean; 1.0 = perfectly balanced
}

// Summarize computes the summary of a job result.
func Summarize(name string, res *mapreduce.Result) JobSummary {
	s := JobSummary{
		Name:        name,
		Start:       res.Start,
		MapEnd:      res.MapEnd,
		End:         res.End,
		MapTasks:    len(res.MapTaskCosts),
		ReduceTasks: len(res.ReduceTaskCosts),
	}
	if len(res.ReduceTaskCosts) > 0 {
		s.MinReduceCost = res.ReduceTaskCosts[0]
		var total costmodel.Units
		for _, c := range res.ReduceTaskCosts {
			total += c
			if c > s.MaxReduceCost {
				s.MaxReduceCost = c
			}
			if c < s.MinReduceCost {
				s.MinReduceCost = c
			}
		}
		s.MeanReduceCost = total / costmodel.Units(len(res.ReduceTaskCosts))
		if s.MeanReduceCost > 0 {
			s.ReduceImbalance = float64(s.MaxReduceCost / s.MeanReduceCost)
		}
	}
	return s
}

// Render prints the summary as aligned text.
func (s JobSummary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %s\n", s.Name)
	fmt.Fprintf(&b, "  window     : %.0f → %.0f (map barrier at %.0f)\n", s.Start, s.End, s.MapEnd)
	fmt.Fprintf(&b, "  tasks      : %d map, %d reduce\n", s.MapTasks, s.ReduceTasks)
	if s.ReduceTasks > 0 {
		fmt.Fprintf(&b, "  reduce cost: min %.0f / mean %.0f / max %.0f (imbalance ×%.2f)\n",
			s.MinReduceCost, s.MeanReduceCost, s.MaxReduceCost, s.ReduceImbalance)
	}
	return b.String()
}

// Timeline renders an ASCII Gantt chart of the job's reduce tasks: one
// row per task, '#' spanning its busy window on the global clock.
func Timeline(res *mapreduce.Result, width int) string {
	if width < 20 {
		width = 20
	}
	if len(res.ReduceTaskCosts) == 0 || res.End <= res.Start {
		return "(no reduce tasks)\n"
	}
	span := res.End - res.Start
	var b strings.Builder
	fmt.Fprintf(&b, "reduce timeline [%.0f, %.0f]\n", res.Start, res.End)
	for i, cost := range res.ReduceTaskCosts {
		start := res.ReduceStarts[i]
		lo := int(float64(start-res.Start) / float64(span) * float64(width))
		hi := int(float64(start+cost-res.Start) / float64(span) * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		row := []byte(strings.Repeat(" ", width))
		for c := lo; c < hi; c++ {
			row[c] = '#'
		}
		fmt.Fprintf(&b, "  r%02d |%s|\n", i, string(row))
	}
	return b.String()
}

// TopBlocks lists the k most expensive scheduled blocks, for spotting
// skew problems at a glance.
func TopBlocks(costs map[string]costmodel.Units, k int) string {
	type kv struct {
		id   string
		cost costmodel.Units
	}
	list := make([]kv, 0, len(costs))
	for id, c := range costs {
		list = append(list, kv{id, c})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].cost != list[j].cost {
			return list[i].cost > list[j].cost
		}
		return list[i].id < list[j].id
	})
	if k > len(list) {
		k = len(list)
	}
	var b strings.Builder
	for _, e := range list[:k] {
		fmt.Fprintf(&b, "  %-24s %12.0f\n", e.id, e.cost)
	}
	return b.String()
}
