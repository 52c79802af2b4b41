// Package sched implements §IV-C of the paper: generation of the
// progressive schedule. Given the estimated blocking trees, the number
// of reduce tasks r, a cost vector C, and a weighting function W, it
//
//  1. repeatedly identifies *overflowed* trees — trees whose
//     high-utility blocks alone exceed a bucket of the cost vector —
//     and greedily splits them (IDENTIFY-TREES / SPLIT-TREE, Fig. 6);
//  2. partitions the trees among the reduce tasks by largest slack
//     SK(R) (PARTITION-TREES);
//  3. orders each task's blocks by non-increasing utility, subject to
//     the bottom-up constraint (children before parents, §III-A);
//  4. assigns each reduce task a range of sequence values and each
//     block a unique SQ within its task's range (§III-B), and each
//     tree a unique dominance value (§V).
//
// The LPT and NoSplit baseline schedulers of §VI-B2 are provided
// through the same entry point.
package sched

import (
	"errors"
	"fmt"

	"proger/internal/blocking"
	"proger/internal/costmodel"
	"proger/internal/estimate"
	"proger/internal/obs"
	"proger/internal/obs/quality"
)

// Kind selects the tree-scheduling algorithm.
type Kind int

const (
	// Ours is the full algorithm of Fig. 6, with tree splitting.
	Ours Kind = iota
	// NoSplit is Ours without the tree-split mechanism (§VI-B2).
	NoSplit
	// LPT is Longest Processing Time load balancing [23]: trees sorted
	// by cost, each assigned to the least-loaded task (§VI-B2).
	LPT
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Ours:
		return "ours"
	case NoSplit:
		return "nosplit"
	case LPT:
		return "lpt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// CostPoints (K, the points of the auto-derived cost vector) and
// SplitBatch (b, trees split per iteration) are the values the pipeline
// generates its schedules with.
const (
	CostPoints = 3
	SplitBatch = 4
)

// Config parameterizes schedule generation.
type Config struct {
	// R is the number of reduce tasks.
	R int
	// CostVector is C = {c₁ < c₂ < … < c_K}: the sampled cost points of
	// the quality function (Eq. 1). Use AutoCostVector for a sensible
	// default derived from the estimated total cost.
	CostVector []costmodel.Units
	// Weights is W(cᵢ) per bucket, non-increasing, in [0,1].
	Weights []float64
	// Batch is b: trees split per identify/split iteration (§IV-C2
	// suggests a small value since few trees overflow); 0 means
	// SplitBatch.
	Batch int
	// Estimator supplies the split-update arithmetic of §IV-C2.
	Estimator *estimate.Estimator
	// Kind selects Ours / NoSplit / LPT.
	Kind Kind
	// MaxSplitRounds bounds the identify/split loop (safety valve; the
	// loop also stops when no split makes progress).
	MaxSplitRounds int
	// Trace, when non-nil, receives schedule-generation spans: one
	// summary, one per detached subtree, and one per reduce task's final
	// plan (tree/block counts, estimated load, leftover slack). The
	// spans are zero-duration instants at TraceBase on the simulated
	// clock — generation's simulated cost is charged by Job 2's map
	// tasks, not here. Nil disables at zero cost.
	Trace *obs.Tracer
	// TraceBase positions generation spans on the simulated clock
	// (typically Job 1's end time).
	TraceBase costmodel.Units
	// Quality, when non-nil, receives the generated schedule's
	// per-block predictions (Dup(X)/Cost(X)/Util(X), Eq. 2–5, captured
	// after splitting so they are the values the schedule was built
	// from) and per-task plans (planned load and leftover slack SK(R)),
	// for calibration against Job 2's realized telemetry. Nil disables
	// at zero cost.
	Quality *quality.Recorder
}

func (c *Config) validate() error {
	if c.R < 1 {
		return fmt.Errorf("sched: R must be ≥ 1, got %d", c.R)
	}
	if len(c.CostVector) == 0 {
		return fmt.Errorf("sched: empty cost vector")
	}
	prev := costmodel.Units(0)
	for i, cv := range c.CostVector {
		if cv <= prev {
			return fmt.Errorf("sched: cost vector must be strictly increasing (index %d)", i)
		}
		prev = cv
	}
	if len(c.Weights) != len(c.CostVector) {
		return fmt.Errorf("sched: %d weights for %d cost points", len(c.Weights), len(c.CostVector))
	}
	for i := 1; i < len(c.Weights); i++ {
		if c.Weights[i] > c.Weights[i-1] {
			return fmt.Errorf("sched: weights must be non-increasing")
		}
	}
	if c.Estimator == nil && c.Kind == Ours {
		return fmt.Errorf("sched: Ours scheduler requires an estimator for splits")
	}
	return nil
}

// AutoCostVector derives a K-point cost vector from the estimated total
// block cost. The points grow geometrically up to the per-task budget
// (c_K = total/r, cᵢ = c_K/2^(K−i)): early sampling intervals are
// narrow — so the splitter aggressively parallelizes the beneficial
// high-utility work that defines progressiveness — while late intervals
// are wide, leaving the low-utility tail alone.
func AutoCostVector(trees []*blocking.Tree, r, k int) []costmodel.Units {
	total := costmodel.Units(0)
	for _, t := range trees {
		for _, b := range t.Blocks() {
			total += b.CostEst
		}
	}
	if r < 1 {
		r = 1
	}
	if k < 1 {
		k = 1
	}
	perTask := total / costmodel.Units(r)
	if perTask <= 0 {
		perTask = 1
	}
	out := make([]costmodel.Units, k)
	for i := range out {
		out[i] = perTask / costmodel.Units(int64(1)<<uint(k-1-i))
	}
	return out
}

// LinearWeights returns the non-increasing weights W(cᵢ) = (K−i)/K for
// i = 0..K−1 — early cost intervals matter most, the essence of
// progressiveness.
func LinearWeights(k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = float64(k-i) / float64(k)
	}
	return out
}

// taskRange is the width of each reduce task's sequence-value range.
const taskRange = int64(1_000_000_000)

// SQFor composes a sequence value from a task index and a position in
// that task's block schedule.
func SQFor(task int, pos int) int64 { return int64(task)*taskRange + int64(pos) }

// TaskOfSQ recovers the reduce task that owns a sequence value; this is
// the job's partition function.
func TaskOfSQ(sq int64) int { return int(sq / taskRange) }

// sqKeyWidth is the fixed width of a sequence key; maxSQ = 10^sqKeyWidth
// bounds the values it can hold, which covers every SQFor(task, pos)
// with task and pos below taskRange.
const (
	sqKeyWidth = 18
	maxSQ      = taskRange * taskRange
)

// SQKey renders a sequence value as a fixed-width decimal string so the
// framework's lexicographic key sort equals numeric SQ order. The
// schedule generator renders each block's key once (Block.SQKey); the
// Job-2 record path reads that instead of calling this per record.
// Values outside [0, 10^18) — which no schedule produces — keep the
// "%018d" form (a sign, or a 19th digit); ParseSQKey rejects those.
func SQKey(sq int64) string {
	if sq < 0 || sq >= maxSQ {
		return fmt.Sprintf("%0*d", sqKeyWidth, sq)
	}
	var buf [sqKeyWidth]byte
	for i := sqKeyWidth - 1; i >= 0; i-- {
		buf[i] = byte('0' + sq%10)
		sq /= 10
	}
	return string(buf[:])
}

var errSQKeyFormat = errors.New("want 18 decimal digits")

// ParseSQKey inverts SQKey on [0, 10^18): it accepts exactly 18 ASCII
// digits and nothing else — no sign, no spaces, no shorter or longer
// run. It is called once per map-output record (Job2Partitioner), so
// it neither allocates nor goes through fmt on a well-formed key.
func ParseSQKey(key string) (int64, error) {
	var sq int64
	ok := len(key) == sqKeyWidth
	for i := 0; ok && i < sqKeyWidth; i++ {
		d := key[i] - '0'
		ok = d <= 9
		sq = sq*10 + int64(d)
	}
	if !ok {
		return 0, fmt.Errorf("sched: bad sequence key %q: %w", key, errSQKeyFormat)
	}
	return sq, nil
}

// Schedule is the progressive schedule: the final tree set (after
// splitting), the tree partition, and the per-task block schedules with
// sequence values assigned.
type Schedule struct {
	// Trees is every tree, in dominance-value order (Tree.Dom == index).
	Trees []*blocking.Tree
	// TaskOfTree maps each tree (by position in Trees) to its reduce task.
	TaskOfTree []int
	// TaskBlocks[task] is the task's block schedule, in resolution order.
	TaskBlocks [][]*blocking.Block
	// ByID indexes every scheduled block; Block.Tree is its tree's
	// position in Trees.
	ByID BlockIndex
	// R is the number of reduce tasks.
	R int
}

// BlockIndex finds a block by its ID: one map per (family, level),
// keyed by the blocking key. Job 2's map side asks it one question per
// entity, family and level with the key as bytes in scratch, and a
// string-keyed map answers that without building the string and without
// the generic struct hasher a map keyed by BlockID goes through — which
// was 4.7 % of persons-exact's CPU. The zero value is an empty index.
type BlockIndex [][]map[string]*blocking.Block

// Add enters b under its ID.
func (x *BlockIndex) Add(b *blocking.Block) {
	f, l := int(b.ID.Family), int(b.ID.Level)
	for len(*x) <= f {
		*x = append(*x, nil)
	}
	for len((*x)[f]) < l {
		(*x)[f] = append((*x)[f], map[string]*blocking.Block{})
	}
	(*x)[f][l-1][b.ID.Key] = b
}

// Lookup returns the block of family f (0-based) at the given level
// (1-based) with the given key, or nil.
func (x BlockIndex) Lookup(f, level int, key []byte) *blocking.Block {
	if f >= len(x) || level > len(x[f]) {
		return nil
	}
	return x[f][level-1][string(key)]
}

// Block returns the scheduled block with the given sequence value, or
// nil. Used by the reduce function to find the block a key refers to.
func (s *Schedule) Block(sq int64) *blocking.Block {
	task := TaskOfSQ(sq)
	if task < 0 || task >= len(s.TaskBlocks) {
		return nil
	}
	pos := int(sq % taskRange)
	if pos < 0 || pos >= len(s.TaskBlocks[task]) {
		return nil
	}
	return s.TaskBlocks[task][pos]
}

// NumBlocks returns the total number of scheduled blocks.
func (s *Schedule) NumBlocks() int {
	n := 0
	for _, bs := range s.TaskBlocks {
		n += len(bs)
	}
	return n
}

// Generate runs the configured scheduler over the estimated trees.
// The input trees are mutated (splits detach subtrees, blocks receive
// SQ values); pass a freshly built forest.
func Generate(trees []*blocking.Tree, cfg Config) (*Schedule, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Batch <= 0 {
		cfg.Batch = SplitBatch
	}
	if cfg.MaxSplitRounds <= 0 {
		cfg.MaxSplitRounds = 64
	}

	g := &generator{cfg: cfg, trees: trees}
	if cfg.Kind == Ours {
		g.splitLoop()
	}
	switch cfg.Kind {
	case LPT:
		g.partitionLPT()
	default:
		g.partitionBySlack()
	}
	g.orderBlocks()
	g.assignDomAndSQ()

	s := g.schedule()
	g.emitTrace(s)
	g.emitQuality(s)
	return s, nil
}

// emitQuality publishes the final schedule's predictions and plans to
// the quality recorder: one TaskPlan per reduce task (load from
// PARTITION-TREES, leftover slack SK(R)) and one BlockPrediction per
// scheduled block, in (task, position) order. Like emitTrace,
// everything derives from the schedule itself, so the stream is
// deterministic.
func (g *generator) emitQuality(s *Schedule) {
	q := g.cfg.Quality
	if !q.Enabled() {
		return
	}
	q.SetBucketLabels(estimate.FracBucketLabels())
	treesOf := make([]int, s.R)
	for _, task := range s.TaskOfTree {
		treesOf[task]++
	}
	for r := 0; r < s.R; r++ {
		slack := 0.0
		if g.taskSlack != nil {
			slack = g.taskSlack[r]
		}
		q.RecordPlan(quality.TaskPlan{
			Task:    r,
			Trees:   treesOf[r],
			Blocks:  len(s.TaskBlocks[r]),
			EstCost: float64(g.taskLoad[r]),
			Slack:   slack,
		})
		for _, b := range s.TaskBlocks[r] {
			q.RecordPrediction(quality.BlockPrediction{
				ID:     b.ID.String(),
				SQ:     b.SQ,
				Task:   r,
				Tree:   b.Tree,
				Size:   b.Size,
				Bucket: g.cfg.Estimator.FracBucketOf(b),
				Dup:    b.DupEst,
				Cost:   float64(b.CostEst),
				Util:   b.Util,
				Full:   b.FullResolve,
			})
		}
	}
}

// emitTrace publishes the generation decisions as zero-duration spans
// at cfg.TraceBase: the split decisions of the identify/split loop and
// each reduce task's final plan with its load and slack. Everything
// here derives from the schedule itself, so traces are deterministic.
func (g *generator) emitTrace(s *Schedule) {
	tr := g.cfg.Trace
	if tr == nil {
		return
	}
	pid := tr.PID("schedule-generation")
	at := g.cfg.TraceBase
	tr.Add(obs.Span{
		Cat: "schedule", Name: "generate (" + g.cfg.Kind.String() + ")",
		PID: pid, Start: at,
		Args: []obs.Arg{
			obs.A("trees", len(s.Trees)),
			obs.A("blocks", s.NumBlocks()),
			obs.A("r", s.R),
			obs.A("split_rounds", g.splitRounds),
			obs.A("splits", len(g.splitEvents)),
		},
	})
	for _, ev := range g.splitEvents {
		tr.Add(obs.Span{
			Cat: "schedule", Name: "split " + ev.root,
			PID: pid, Start: at,
			Args: []obs.Arg{obs.A("round", ev.round), obs.A("detached", ev.detached)},
		})
	}
	treesOf := make([]int, s.R)
	for _, task := range s.TaskOfTree {
		treesOf[task]++
	}
	for r := 0; r < s.R; r++ {
		args := []obs.Arg{
			obs.A("trees", treesOf[r]),
			obs.A("blocks", len(s.TaskBlocks[r])),
			obs.A("est_cost", float64(g.taskLoad[r])),
		}
		if g.taskSlack != nil {
			args = append(args, obs.A("slack", g.taskSlack[r]))
		}
		tr.Add(obs.Span{
			Cat: "schedule", Name: fmt.Sprintf("plan task %d", r),
			PID: pid, TID: r, Start: at, Args: args,
		})
	}
}
