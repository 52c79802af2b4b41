// Package membudget implements a process-wide memory budget for the
// out-of-core pipeline. Holders of large in-memory state register an
// Account and charge it for the bytes they retain; when a charge would
// push the total over budget, the manager forces the largest spillable
// holders to move their bytes to disk first. The one holder is the
// MapReduce engine's partition store (newPartitionStore in
// internal/mapreduce): one account per reduce partition, charged for
// the map runs it buffers, spilled by appending them to its spill file.
// An account shrinks only by a forced spill or by Close.
//
// The manager is the run's one ledger of budget activity, and Snapshot
// its one read API: the engine reports each job's forced spills and
// spilled bytes as the difference of two snapshots.
//
// Enforcement is *reservation-style*: victims spill before the new
// bytes are recorded, so as long as no single charge exceeds the whole
// budget and spillable holders exist, the tracked total — and thus the
// reported peak — never exceeds the budget.
//
// Accounting is deliberately approximate (callers charge what they can
// cheaply measure: record payload bytes plus a small per-record
// overhead). The manager enforces the invariant on tracked bytes; Go
// allocator slack is outside its jurisdiction.
//
// All methods are safe on a nil *Manager / nil *Account and become
// no-ops, so call sites need no budget-enabled branches.
package membudget

import (
	"fmt"
	"sync"
)

// Manager tracks charged bytes across all accounts and forces spills
// when a charge would exceed the budget. Its ledger is the Stats that
// Snapshot copies out.
type Manager struct {
	mu       sync.Mutex
	cond     *sync.Cond
	st       Stats
	accounts map[*Account]struct{}
}

// Account is one holder's ledger within a Manager.
type Account struct {
	m    *Manager
	name string
	// spill moves the holder's in-memory bytes to disk and returns how
	// many tracked bytes were freed. nil marks the account unspillable
	// (its bytes are freed only by Close). Called WITHOUT the manager
	// lock held.
	spill func() (int64, error)

	used     int64
	spilling bool
}

// New creates a manager enforcing budget bytes. A budget ≤ 0 returns
// nil: the nil manager tracks nothing and never forces spills.
func New(budget int64) *Manager {
	if budget <= 0 {
		return nil
	}
	m := &Manager{st: Stats{Budget: budget}, accounts: make(map[*Account]struct{})}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// NewAccount registers a holder. spill may be nil for holders whose
// bytes cannot be moved to disk.
func (m *Manager) NewAccount(name string, spill func() (int64, error)) *Account {
	if m == nil {
		return nil
	}
	a := &Account{m: m, name: name, spill: spill}
	m.mu.Lock()
	m.accounts[a] = struct{}{}
	m.mu.Unlock()
	return a
}

// pickVictim returns the largest spillable account not already mid-
// spill and not excluded, or nil. Caller holds m.mu.
func (m *Manager) pickVictim(skip map[*Account]bool) *Account {
	var best *Account
	for a := range m.accounts {
		if a.spill == nil || a.spilling || a.used <= 0 || skip[a] {
			continue
		}
		if best == nil || a.used > best.used {
			best = a
		}
	}
	return best
}

// anySpilling reports whether some account is mid-spill. Caller holds
// m.mu.
func (m *Manager) anySpilling() bool {
	for a := range m.accounts {
		if a.spilling {
			return true
		}
	}
	return false
}

// Charge reserves n more bytes for the account, spilling the largest
// holders first if the total would exceed the budget. If every
// spillable holder has been tried and the total still exceeds the
// budget (e.g. a single charge larger than the whole budget), the
// charge proceeds anyway — the budget bounds what CAN be bounded.
func (a *Account) Charge(n int64) error {
	if a == nil || n <= 0 {
		return nil
	}
	m := a.m
	var skip map[*Account]bool
	m.mu.Lock()
	for m.st.Used+n > m.st.Budget {
		victim := m.pickVictim(skip)
		if victim == nil {
			if m.anySpilling() {
				// Another goroutine is freeing memory right now; wait
				// for it rather than overshooting.
				m.cond.Wait()
				continue
			}
			break
		}
		victim.spilling = true
		m.mu.Unlock()
		freed, err := victim.spill()
		m.mu.Lock()
		victim.spilling = false
		m.cond.Broadcast()
		if err != nil {
			m.mu.Unlock()
			return fmt.Errorf("membudget: spilling %s: %w", victim.name, err)
		}
		freed = min(freed, victim.used)
		victim.used -= freed
		m.st.Used -= freed
		if freed > 0 {
			m.st.ForcedSpills++
			m.st.SpilledBytes += freed
		} else {
			// No progress from this victim (pinned or already empty);
			// don't pick it again within this charge.
			if skip == nil {
				skip = make(map[*Account]bool)
			}
			skip[victim] = true
		}
	}
	a.used += n
	m.st.Used += n
	m.st.ChargedTotal += n
	m.st.Peak = max(m.st.Peak, m.st.Used)
	m.mu.Unlock()
	return nil
}

// Close releases everything the account still holds and unregisters
// it.
func (a *Account) Close() {
	if a == nil {
		return
	}
	m := a.m
	m.mu.Lock()
	m.st.Used -= a.used
	a.used = 0
	delete(m.accounts, a)
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Stats is a single-lock snapshot of the manager's pressure telemetry,
// for live introspection, run summaries and the engine's metrics.
type Stats struct {
	Budget       int64 `json:"budget_bytes"`
	Used         int64 `json:"used_bytes"`
	Peak         int64 `json:"peak_bytes"`
	ChargedTotal int64 `json:"charged_total_bytes"` // lifetime sum of all charges (raw volume)
	ForcedSpills int64 `json:"forced_spills"`
	SpilledBytes int64 `json:"spilled_bytes"`
}

// Snapshot returns all pressure counters under one lock acquisition,
// so the fields are mutually consistent. It is the manager's one read
// API. Zero for a nil manager.
func (m *Manager) Snapshot() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st
}
