package membudget

import (
	"errors"
	"sync"
	"testing"
)

func TestNilManagerIsInert(t *testing.T) {
	var m *Manager
	if m.Snapshot() != (Stats{}) {
		t.Error("nil manager reported nonzero state")
	}
	a := m.NewAccount("x", nil)
	if a != nil {
		t.Fatal("nil manager returned a live account")
	}
	if err := a.Charge(100); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if New(0) != nil || New(-5) != nil {
		t.Error("non-positive budget should yield a nil manager")
	}
}

func TestChargeReleaseTracking(t *testing.T) {
	m := New(1000)
	a := m.NewAccount("a", nil)
	b := m.NewAccount("b", nil)
	if err := a.Charge(300); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge(400); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Snapshot(), (Stats{Budget: 1000, Used: 700, Peak: 700, ChargedTotal: 700}); got != want {
		t.Errorf("Snapshot = %+v, want %+v", got, want)
	}
	b.Close()
	if got, want := m.Snapshot(), (Stats{Budget: 1000, Used: 300, Peak: 700, ChargedTotal: 700}); got != want {
		t.Errorf("Snapshot after Close = %+v, want %+v", got, want)
	}
	a.Close()
	if got := m.Snapshot().Used; got != 0 {
		t.Errorf("Used after closing every account = %d, want 0", got)
	}
}

func TestChargeForcesLargestSpill(t *testing.T) {
	m := New(1000)
	var spilledA, spilledB bool
	var a, b *Account
	a = m.NewAccount("small", func() (int64, error) {
		spilledA = true
		return 200, nil
	})
	b = m.NewAccount("large", func() (int64, error) {
		spilledB = true
		return 600, nil
	})
	if err := a.Charge(200); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge(600); err != nil {
		t.Fatal(err)
	}
	// 800 used; charging 300 more must spill the LARGEST holder (b)
	// and leave a alone.
	c := m.NewAccount("new", nil)
	if err := c.Charge(300); err != nil {
		t.Fatal(err)
	}
	if !spilledB || spilledA {
		t.Errorf("spills: a=%v b=%v, want only b", spilledA, spilledB)
	}
	st := m.Snapshot()
	if st.Used != 500 {
		t.Errorf("Used = %d, want 500 (200 + 300)", st.Used)
	}
	if st.Peak > 1000 {
		t.Errorf("Peak %d exceeded budget 1000 — enforcement must precede recording", st.Peak)
	}
	if st.ForcedSpills != 1 || st.SpilledBytes != 600 {
		t.Errorf("spill stats: %d spills, %d bytes", st.ForcedSpills, st.SpilledBytes)
	}
}

func TestChargeCascadesAcrossVictims(t *testing.T) {
	m := New(100)
	mk := func(n int64) *Account {
		held := n
		a := m.NewAccount("h", func() (int64, error) {
			freed := held
			held = 0
			return freed, nil
		})
		if err := a.Charge(n); err != nil {
			t.Fatal(err)
		}
		return a
	}
	mk(40)
	mk(30)
	mk(25) // 95 used
	fresh := m.NewAccount("fresh", nil)
	if err := fresh.Charge(90); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if st.Peak > 100 {
		t.Errorf("peak %d exceeded budget", st.Peak)
	}
	if st.ForcedSpills < 2 {
		t.Errorf("expected a cascade of spills, got %d", st.ForcedSpills)
	}
}

func TestUnspillableOvershootAllowed(t *testing.T) {
	m := New(100)
	a := m.NewAccount("pinned", nil)
	if err := a.Charge(250); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Used; got != 250 {
		t.Errorf("Used = %d, want 250 (overshoot permitted when nothing can spill)", got)
	}
}

func TestZeroFreedVictimNotRetriedWithinCharge(t *testing.T) {
	m := New(100)
	calls := 0
	a := m.NewAccount("stuck", func() (int64, error) {
		calls++
		return 0, nil // pinned: refuses to free anything
	})
	if err := a.Charge(80); err != nil {
		t.Fatal(err)
	}
	b := m.NewAccount("b", nil)
	if err := b.Charge(50); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("zero-freed victim called %d times in one charge, want 1", calls)
	}
	if got := m.Snapshot().Used; got != 130 {
		t.Errorf("Used = %d, want 130", got)
	}
}

func TestSpillErrorPropagates(t *testing.T) {
	m := New(100)
	boom := errors.New("disk full")
	a := m.NewAccount("bad", func() (int64, error) { return 0, boom })
	if err := a.Charge(80); err != nil {
		t.Fatal(err)
	}
	b := m.NewAccount("b", nil)
	err := b.Charge(50)
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("Charge error = %v, want wrapped %v", err, boom)
	}
}

func TestConcurrentChargersStayUnderBudget(t *testing.T) {
	const budget = 10000
	m := New(budget)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a *Account
			var mu sync.Mutex
			held := int64(0)
			a = m.NewAccount("g", func() (int64, error) {
				mu.Lock()
				freed := held
				held = 0
				mu.Unlock()
				return freed, nil
			})
			defer a.Close()
			for i := 0; i < 200; i++ {
				if err := a.Charge(100); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				held += 100
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st := m.Snapshot()
	if st.Peak > budget {
		t.Errorf("concurrent peak %d exceeded budget %d", st.Peak, budget)
	}
	if st.ChargedTotal != 8*200*100 {
		t.Errorf("ChargedTotal = %d, want %d", st.ChargedTotal, 8*200*100)
	}
}
