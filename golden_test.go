package proger_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"proger/internal/core"
	"proger/internal/experiments"
	"proger/internal/mechanism"
)

// TestMatchKernelKeepsResolveBytes pins Resolve's output to digests
// recorded at the commit before the bit-parallel edit-distance kernel
// and the per-rule distance budget went in (PR 14). The cross-mode
// identity tests compare the current code with itself; this one
// compares it with the row-DP kernel it replaced, so a match-layer
// change that flips a single decision or reorders a single event
// fails here.
func TestMatchKernelKeepsResolveBytes(t *testing.T) {
	pubs := experiments.PublicationsWorkload(1200, 3)
	books := experiments.BooksWorkload(2000, 3)
	cases := []struct {
		name string
		w    *experiments.Workload
		mech mechanism.Mechanism
		want string
	}{
		{"publications/SN", pubs, mechanism.SN{}, "b200be005dd131bd71aef035c2fdb8d079071559b1cd59587268b79297e3b47e"},
		{"publications/PSNM", pubs, mechanism.PSNM{}, "c193fc56e7fdbeed8821b2cd21aab548baf0361b19246df284b2323819f3bc71"},
		{"books/SN", books, mechanism.SN{}, "f66d5f5febe7cbfe3c4e2206c8ccab25c19647b25cf709425592c44c4d757f86"},
		{"books/PSNM", books, mechanism.PSNM{}, "bba22e074ad325fcf90f04da69c6266288b5ce5c8a462576c0a2f107a76a4093"},
	}
	for _, c := range cases {
		res, err := core.Resolve(c.w.DS, core.Options{
			Families:        c.w.Fams,
			Matcher:         c.w.Matcher,
			Mechanism:       c.mech,
			Policy:          c.w.Policy,
			DupModel:        c.w.Model,
			Machines:        4,
			SlotsPerMachine: 2,
		})
		if err != nil {
			t.Fatalf("%s: Resolve: %v", c.name, err)
		}
		h := sha256.New()
		var buf [16]byte
		for _, ev := range res.Events {
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(ev.Time))
			binary.LittleEndian.PutUint32(buf[8:], uint32(ev.Pair.Lo))
			binary.LittleEndian.PutUint32(buf[12:], uint32(ev.Pair.Hi))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(res.TotalTime))
		h.Write(buf[:8])
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: %d events, total %v: digest %s, want %s", c.name, len(res.Events), res.TotalTime, got, c.want)
		}
	}
}
