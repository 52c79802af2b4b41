// Package faults provides deterministic, seed-driven fault injection
// for the MapReduce attempt runtime. An Injector decides, per task
// attempt, whether the attempt runs clean, crashes partway, hangs
// (until the runtime's per-attempt timeout kills it), or runs slow
// (a straggler, the speculative-execution target).
//
// Decisions are pure functions of (seed, phase, task, attempt), so a
// chaos run is exactly reproducible: the same seed injects the same
// faults into the same attempts regardless of host concurrency. The
// injected faults live entirely on the runtime's simulated attempt
// timeline — they are retried, timed out, or speculated around, and by
// construction cannot alter the committed mapreduce.Result.
package faults

import "proger/internal/obs/live"

// Kind classifies what happens to one task attempt.
type Kind int

// Attempt fault kinds.
const (
	// None: the attempt runs clean and commits its output.
	None Kind = iota
	// Crash: the attempt dies partway through its work; its partial
	// output is discarded and the runtime retries after backoff.
	Crash
	// Hang: the attempt stops making progress; the runtime's
	// per-attempt timeout converts it into a retryable failure.
	Hang
	// Slow: the attempt completes but takes Factor× its clean cost —
	// a straggler, eligible for speculative re-execution.
	Slow
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	case Slow:
		return "slow"
	}
	return "unknown"
}

// Fault is one injection decision. Factor only applies to Slow faults:
// the attempt's simulated duration is Factor × its clean cost (≤ 0
// means the runtime default).
type Fault struct {
	Kind   Kind
	Factor float64
}

// Injector decides the fate of task attempts. Implementations must be
// pure (same arguments → same Fault) and safe for concurrent use;
// attempt numbering starts at 1, and the runtime also consults the
// injector for speculative attempts (with an attempt index past the
// retry range).
type Injector interface {
	Decide(phase live.Phase, task, attempt int) Fault
}

// DefaultBudget is the default cap on consecutive faulted attempts per
// task in a Seeded injector. Any retry policy allowing at least
// DefaultBudget retries is therefore guaranteed to complete a chaos
// run, whatever the rate or seed.
const DefaultBudget = 3

// Seeded is the standard chaos injector: each attempt faults with
// probability Rate, the kind drawn crash:hang:slow at 2:1:1, both
// decisions keyed on a deterministic hash of (Seed, phase, task,
// attempt). The zero value injects nothing.
type Seeded struct {
	// Seed selects the fault pattern; runs with equal seeds and rates
	// inject identical faults.
	Seed int64
	// Rate is the per-attempt fault probability in [0, 1].
	Rate float64
	// Budget caps consecutive faulted attempts per task: attempts past
	// it always run clean, so retry policies with MaxRetries ≥ Budget
	// always complete. 0 means DefaultBudget; negative removes the cap
	// (exercises retry exhaustion).
	Budget int
	// SlowFactor is the duration multiplier for Slow faults (≤ 0 means
	// the runtime default).
	SlowFactor float64
}

// NewSeeded returns a Seeded injector with the default budget and slow
// factor.
func NewSeeded(seed int64, rate float64) *Seeded {
	return &Seeded{Seed: seed, Rate: rate}
}

// Decide implements Injector.
func (s *Seeded) Decide(phase live.Phase, task, attempt int) Fault {
	if s == nil || s.Rate <= 0 {
		return Fault{}
	}
	budget := s.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	if budget > 0 && attempt > budget {
		return Fault{}
	}
	h := mix(uint64(s.Seed), phase, task, attempt)
	if u := float64(h>>11) / float64(uint64(1)<<53); u >= s.Rate {
		return Fault{}
	}
	// Independent second draw for the kind: crash 2 : hang 1 : slow 1.
	switch mix(h, phase, task, attempt) % 4 {
	case 0, 1:
		return Fault{Kind: Crash}
	case 2:
		return Fault{Kind: Hang}
	default:
		return Fault{Kind: Slow, Factor: s.SlowFactor}
	}
}

// mix hashes the decision coordinates: FNV-1a over the fields followed
// by a splitmix64-style finalizer for avalanche.
func mix(seed uint64, phase live.Phase, task, attempt int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	feed := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	feed(seed)
	for i := 0; i < len(phase); i++ {
		h ^= uint64(phase[i])
		h *= prime64
	}
	feed(uint64(task))
	feed(uint64(attempt))
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ScriptKey addresses one attempt in a Script.
type ScriptKey struct {
	Phase   live.Phase
	Task    int
	Attempt int
}

// Script is a table-driven injector for targeted tests: exactly the
// listed attempts fault, everything else runs clean.
type Script map[ScriptKey]Fault

// Decide implements Injector.
func (s Script) Decide(phase live.Phase, task, attempt int) Fault {
	return s[ScriptKey{Phase: phase, Task: task, Attempt: attempt}]
}
