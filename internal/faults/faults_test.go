package faults

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"proger/internal/obs/live"
)

func TestSeededDeterministic(t *testing.T) {
	a := NewSeeded(42, 0.5)
	b := NewSeeded(42, 0.5)
	for _, phase := range []live.Phase{live.PhaseMap, live.PhaseReduce} {
		for task := 0; task < 50; task++ {
			for attempt := 1; attempt <= 4; attempt++ {
				fa := a.Decide(phase, task, attempt)
				fb := b.Decide(phase, task, attempt)
				if fa != fb {
					t.Fatalf("Decide(%s,%d,%d) = %v vs %v across equal injectors",
						phase, task, attempt, fa, fb)
				}
				if again := a.Decide(phase, task, attempt); again != fa {
					t.Fatalf("Decide(%s,%d,%d) not stable across calls", phase, task, attempt)
				}
			}
		}
	}
}

func TestSeededSeedsDiffer(t *testing.T) {
	a, b := NewSeeded(1, 0.5), NewSeeded(2, 0.5)
	differ := false
	for task := 0; task < 100 && !differ; task++ {
		differ = a.Decide(live.PhaseMap, task, 1) != b.Decide(live.PhaseMap, task, 1)
	}
	if !differ {
		t.Error("seeds 1 and 2 injected identical fault patterns over 100 tasks")
	}
}

func TestSeededRateBounds(t *testing.T) {
	none := NewSeeded(7, 0)
	all := NewSeeded(7, 1)
	for task := 0; task < 100; task++ {
		if f := none.Decide(live.PhaseReduce, task, 1); f.Kind != None {
			t.Fatalf("rate 0 injected %v", f)
		}
		if f := all.Decide(live.PhaseReduce, task, 1); f.Kind == None {
			t.Fatalf("rate 1 stayed clean for task %d", task)
		}
	}
	var nilInj *Seeded
	if f := nilInj.Decide(live.PhaseMap, 0, 1); f.Kind != None {
		t.Errorf("nil injector returned %v", f)
	}
}

func TestSeededKindMix(t *testing.T) {
	inj := NewSeeded(3, 1)
	seen := map[Kind]int{}
	for task := 0; task < 400; task++ {
		seen[inj.Decide(live.PhaseMap, task, 1).Kind]++
	}
	for _, k := range []Kind{Crash, Hang, Slow} {
		if seen[k] == 0 {
			t.Errorf("kind %v never drawn in 400 faulted attempts (mix %v)", k, seen)
		}
	}
	if seen[Crash] < seen[Hang] || seen[Crash] < seen[Slow] {
		t.Errorf("crash should dominate the 2:1:1 mix, got %v", seen)
	}
}

func TestSeededBudget(t *testing.T) {
	inj := NewSeeded(9, 1)
	// Default budget: attempts past DefaultBudget always run clean.
	for task := 0; task < 20; task++ {
		if f := inj.Decide(live.PhaseMap, task, DefaultBudget+1); f.Kind != None {
			t.Fatalf("attempt past budget faulted: %v", f)
		}
		if f := inj.Decide(live.PhaseMap, task, DefaultBudget); f.Kind == None {
			t.Fatalf("attempt within budget stayed clean at rate 1")
		}
	}
	// Negative budget removes the cap.
	inj.Budget = -1
	if f := inj.Decide(live.PhaseMap, 0, DefaultBudget+5); f.Kind == None {
		t.Error("uncapped injector stayed clean at rate 1")
	}
}

func TestScript(t *testing.T) {
	s := Script{
		{live.PhaseMap, 2, 1}:    {Kind: Crash},
		{live.PhaseReduce, 0, 2}: {Kind: Slow, Factor: 10},
	}
	if f := s.Decide(live.PhaseMap, 2, 1); f.Kind != Crash {
		t.Errorf("scripted crash = %v", f)
	}
	if f := s.Decide(live.PhaseReduce, 0, 2); f.Kind != Slow || f.Factor != 10 {
		t.Errorf("scripted slow = %v", f)
	}
	if f := s.Decide(live.PhaseMap, 2, 2); f.Kind != None {
		t.Errorf("unscripted attempt = %v", f)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{None: "none", Crash: "crash", Hang: "hang", Slow: "slow", Kind(99): "unknown"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	// Kinds render in fmt verbs via Stringer.
	if got := fmt.Sprint(Crash); got != "crash" {
		t.Errorf("fmt.Sprint(Crash) = %q", got)
	}
}

// TestSeededDecisionsPinned: a seeded injector's decisions hash the
// phase name, so they, and every trace of a run with injected faults,
// stay as they were recorded while the phase names do not change.
func TestSeededDecisionsPinned(t *testing.T) {
	h := sha256.New()
	inj := NewSeeded(7, 0.3)
	for _, phase := range []live.Phase{live.PhaseMap, live.PhaseReduce} {
		for task := 0; task < 64; task++ {
			for attempt := 1; attempt <= 4; attempt++ {
				fmt.Fprintln(h, inj.Decide(phase, task, attempt))
			}
		}
	}
	const want = "c176706d371211af5a29b83c7a91d1c04adc717008ac0002c421f5ac377aca9f"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("decisions digest %s, recorded %s", got, want)
	}
}
