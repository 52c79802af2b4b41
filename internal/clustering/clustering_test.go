package clustering

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"proger/internal/entity"
)

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind(5)
	if u.Same(0, 1) {
		t.Error("fresh sets should be distinct")
	}
	if !u.Union(0, 1) {
		t.Error("first union should merge")
	}
	if u.Union(1, 0) {
		t.Error("second union of same sets should report false")
	}
	if !u.Same(0, 1) {
		t.Error("union failed")
	}
	u.Union(2, 3)
	u.Union(1, 3)
	if !u.Same(0, 2) {
		t.Error("transitivity broken")
	}
	if u.Same(0, 4) {
		t.Error("4 should remain singleton")
	}
}

func TestUnionFindEquivalenceProperty(t *testing.T) {
	// Union-find must agree with a brute-force connected-components
	// computation on random edge sets.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		u := NewUnionFind(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for e := 0; e < n; e++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			u.Union(a, b)
			adj[a][b], adj[b][a] = true, true
		}
		// Brute-force reachability (Floyd-Warshall style closure).
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if (adj[i][k] || i == k) && (adj[k][j] || k == j) {
						adj[i][j] = true
					}
				}
			}
		}
		for i := int32(0); i < int32(n); i++ {
			for j := int32(0); j < int32(n); j++ {
				want := i == j || adj[i][j]
				if u.Same(i, j) != want {
					t.Fatalf("trial %d: Same(%d,%d) = %v, want %v", trial, i, j, u.Same(i, j), want)
				}
			}
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	dups := entity.PairSet{}
	dups.Add(entity.MakePair(0, 1))
	dups.Add(entity.MakePair(1, 2))
	dups.Add(entity.MakePair(4, 5))
	clusters := TransitiveClosure(6, dups)
	want := [][]entity.ID{{0, 1, 2}, {3}, {4, 5}}
	if !reflect.DeepEqual(clusters, want) {
		t.Errorf("clusters = %v, want %v", clusters, want)
	}
}

func TestTransitiveClosureIsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		dups := entity.PairSet{}
		for i := 0; i < n; i++ {
			a, b := entity.ID(rng.Intn(n)), entity.ID(rng.Intn(n))
			if a != b {
				dups.Add(entity.MakePair(a, b))
			}
		}
		clusters := TransitiveClosure(n, dups)
		seen := map[entity.ID]bool{}
		for _, c := range clusters {
			for _, id := range c {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransitiveClosureIgnoresOutOfRange(t *testing.T) {
	dups := entity.PairSet{}
	dups.Add(entity.MakePair(0, 99))
	clusters := TransitiveClosure(2, dups)
	if len(clusters) != 2 {
		t.Errorf("out-of-range pair should be ignored: %v", clusters)
	}
}

func TestEvaluatePairs(t *testing.T) {
	truth := entity.PairSet{}
	truth.Add(entity.MakePair(0, 1))
	truth.Add(entity.MakePair(2, 3))
	truth.Add(entity.MakePair(4, 5))
	found := entity.PairSet{}
	found.Add(entity.MakePair(0, 1)) // TP
	found.Add(entity.MakePair(2, 3)) // TP
	found.Add(entity.MakePair(0, 5)) // FP
	m := EvaluatePairs(found, truth.Has, 3)
	if m.TruePositives != 2 || m.FalsePositives != 1 || m.FalseNegatives != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Precision < 0.666 || m.Precision > 0.667 {
		t.Errorf("precision = %v", m.Precision)
	}
	if m.Recall < 0.666 || m.Recall > 0.667 {
		t.Errorf("recall = %v", m.Recall)
	}
	if m.F1 < 0.66 || m.F1 > 0.67 {
		t.Errorf("F1 = %v", m.F1)
	}
}

func TestEvaluatePairsEmpty(t *testing.T) {
	m := EvaluatePairs(entity.PairSet{}, func(entity.Pair) bool { return true }, 0)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("empty metrics = %+v", m)
	}
}

// TestWriteClustersBytes pins the -clusters file format: a header,
// then one line per cluster, its index and its members comma-separated.
func TestWriteClustersBytes(t *testing.T) {
	dups := entity.PairSet{}
	dups.Add(entity.MakePair(0, 1))
	dups.Add(entity.MakePair(3, 4))
	var buf bytes.Buffer
	if err := WriteClusters(&buf, TransitiveClosure(5, dups)); err != nil {
		t.Fatalf("WriteClusters: %v", err)
	}
	if got, want := buf.String(), "#cluster\tmembers\n0\t0,1\n1\t2\n2\t3,4\n"; got != want {
		t.Errorf("WriteClusters wrote %q, want %q", got, want)
	}
}

func TestCorrelationClusteringBasics(t *testing.T) {
	dups := entity.PairSet{}
	dups.Add(entity.MakePair(0, 1))
	dups.Add(entity.MakePair(1, 2))
	dups.Add(entity.MakePair(0, 2))
	dups.Add(entity.MakePair(4, 5))
	clusters := CorrelationClustering(6, dups, 1)
	// Partition invariant.
	seen := map[entity.ID]bool{}
	for _, c := range clusters {
		for _, id := range c {
			if seen[id] {
				t.Fatalf("id %d in two clusters", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 6 {
		t.Fatalf("covered %d of 6", len(seen))
	}
	// The triangle {0,1,2} must be one cluster regardless of pivot order.
	clusterOf := map[entity.ID]int{}
	for i, c := range clusters {
		for _, id := range c {
			clusterOf[id] = i
		}
	}
	if clusterOf[0] != clusterOf[1] || clusterOf[1] != clusterOf[2] {
		t.Errorf("triangle split: %v", clusters)
	}
	if clusterOf[4] != clusterOf[5] {
		t.Errorf("pair split: %v", clusters)
	}
	if clusterOf[3] == clusterOf[0] || clusterOf[3] == clusterOf[4] {
		t.Errorf("singleton glued: %v", clusters)
	}
}

func TestCorrelationClusteringDeterministicPerSeed(t *testing.T) {
	dups := entity.PairSet{}
	dups.Add(entity.MakePair(0, 1))
	dups.Add(entity.MakePair(1, 2)) // 0-2 absent: chain, not triangle
	a := CorrelationClustering(3, dups, 7)
	b := CorrelationClustering(3, dups, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must give same clustering")
	}
}

func TestCorrelationClusteringAvoidsChaining(t *testing.T) {
	// A long weak chain 0-1-2-...-9: transitive closure makes one
	// 10-cluster; pivot clustering with a middle pivot breaks it, which
	// is the point — count disagreements to verify pivot ≤ closure on a
	// star-with-false-edge topology.
	dups := entity.PairSet{}
	// Two true cliques {0,1,2} and {5,6,7} joined by one false edge 2-5.
	for _, p := range [][2]int32{{0, 1}, {0, 2}, {1, 2}, {5, 6}, {5, 7}, {6, 7}, {2, 5}} {
		dups.Add(entity.MakePair(entity.ID(p[0]), entity.ID(p[1])))
	}
	closure := TransitiveClosure(8, dups)
	pivotBest := int64(1 << 60)
	for seed := int64(0); seed < 10; seed++ {
		d := Disagreements(CorrelationClustering(8, dups, seed), dups)
		if d < pivotBest {
			pivotBest = d
		}
	}
	closureD := Disagreements(closure, dups)
	// Closure glues the two cliques: 6+1 internal absent... count:
	// merged cluster {0,1,2,5,6,7} has 15 pairs, 7 present → 8 absent
	// disagreements. Best pivot clustering cuts the false edge: 1.
	if closureD != 8 {
		t.Errorf("closure disagreements = %d, want 8", closureD)
	}
	if pivotBest > 3 {
		t.Errorf("best pivot disagreements = %d, want ≤ 3", pivotBest)
	}
}

func TestDisagreementsEmpty(t *testing.T) {
	if Disagreements(nil, entity.PairSet{}) != 0 {
		t.Error("empty clustering disagreements")
	}
}
