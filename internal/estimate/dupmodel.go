package estimate

import (
	"fmt"
	"math"
	"sort"

	"proger/internal/blocking"
	"proger/internal/datagen"
	"proger/internal/entity"
)

// DupModel estimates d(X): the number of covered duplicate pairs in a
// block. The paper's instantiation (§VI-A4) is d = Prob(|X|)·pairs,
// where Prob is the probability that a covered pair of the block is a
// duplicate, learned from a training dataset over variable-size
// sub-ranges of the block-size fraction |X|/|D|.
type DupModel interface {
	// D returns the estimated covered duplicate pairs of b. cov is the
	// block's covered-pair count and datasetSize is |D|.
	D(b *blocking.Block, cov int64, datasetSize int) float64
}

// numBuckets is the number of log₁₀ sub-ranges of the fraction range
// (0, 1]: bucket 0 holds fractions ≥ 0.1, bucket k holds
// [10^−(k+1), 10^−k).
const numBuckets = 8

// NumFracBuckets exposes the sub-range count for consumers that mirror
// the model's bucketing (e.g. the quality-telemetry calibration
// report).
const NumFracBuckets = numBuckets

// FracBucketLabels returns a printable label per sub-range, aligned
// with BucketBounds.
func FracBucketLabels() []string {
	out := make([]string, numBuckets)
	for i, b := range BucketBounds() {
		if b[0] == 0 {
			out[i] = fmt.Sprintf("<%.0e", b[1])
		} else {
			out[i] = fmt.Sprintf("[%.0e,%.0e)", b[0], b[1])
		}
	}
	return out
}

// fracBucket maps a size fraction to its sub-range index.
func fracBucket(frac float64) int {
	if frac <= 0 {
		return numBuckets - 1
	}
	b := int(-math.Log10(frac))
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// DefaultModel is the analytic fallback used when no training data is
// available: duplicate probability decays with block size, reflecting
// the paper's observation that "the smaller the block, the higher its
// percentage of duplicate pairs".
type DefaultModel struct{}

// D implements DupModel.
func (DefaultModel) D(b *blocking.Block, cov int64, datasetSize int) float64 {
	if cov <= 0 || b.Size < 2 {
		return 0
	}
	prob := math.Min(0.6, 3.0/float64(b.Size))
	return prob * float64(cov)
}

// levelKey identifies the blocking function X^i a probability table
// belongs to.
type levelKey struct {
	Family int8
	Level  int8
}

// BucketModel is the trained model of §VI-A4: per blocking function,
// a duplicate probability per size-fraction sub-range.
type BucketModel struct {
	// Probs[k][bucket] is the learned duplicate probability.
	Probs map[levelKey][numBuckets]float64
	// Global[bucket] is the cross-function fallback for functions or
	// buckets with no training evidence.
	Global [numBuckets]float64
	// seen[k][bucket] records whether evidence existed.
	seen  map[levelKey][numBuckets]bool
	gSeen [numBuckets]bool
}

// D implements DupModel.
func (m *BucketModel) D(b *blocking.Block, cov int64, datasetSize int) float64 {
	if cov <= 0 || b.Size < 2 || datasetSize <= 0 {
		return 0
	}
	bucket := fracBucket(float64(b.Size) / float64(datasetSize))
	k := levelKey{Family: b.ID.Family, Level: b.ID.Level}
	if probs, ok := m.Probs[k]; ok && m.seen[k][bucket] {
		return probs[bucket] * float64(cov)
	}
	if m.gSeen[bucket] {
		return m.Global[bucket] * float64(cov)
	}
	return DefaultModel{}.D(b, cov, datasetSize)
}

// Train learns a BucketModel from a training dataset with ground truth
// (§VI-A4): it blocks the training data with the same families, and for
// every blocking function and size-fraction sub-range accumulates
// (duplicate pairs) / (total pairs) over the blocks falling in that
// sub-range.
func Train(ds *entity.Dataset, gt *datagen.GroundTruth, fams blocking.Families) *BucketModel {
	type acc struct {
		dup, pairs float64
	}
	perKey := map[levelKey][numBuckets]acc{}
	var global [numBuckets]acc
	n := ds.Len()

	for famIdx, fam := range fams {
		keys, groups := blocking.GroupByMainKey(ds, fam)
		for _, key := range keys {
			ents := groups[key]
			tree := blocking.BuildTree(fam, famIdx, key, ents)
			// Index members per block to count duplicate pairs.
			members := map[blocking.BlockID][]*entity.Entity{}
			for _, e := range ents {
				for l := 1; l <= fam.Levels(); l++ {
					id := blocking.BlockID{Family: int8(famIdx), Level: int8(l), Key: fam.Key(e, l)}
					members[id] = append(members[id], e)
				}
			}
			tree.Root.Walk(func(b *blocking.Block) {
				if b.Size < 2 {
					return
				}
				dup := dupPairsIn(members[b.ID], gt)
				pairs := float64(entity.Pairs(b.Size))
				bucket := fracBucket(float64(b.Size) / float64(n))
				k := levelKey{Family: b.ID.Family, Level: b.ID.Level}
				a := perKey[k]
				a[bucket].dup += float64(dup)
				a[bucket].pairs += pairs
				perKey[k] = a
				global[bucket].dup += float64(dup)
				global[bucket].pairs += pairs
			})
		}
	}

	m := &BucketModel{
		Probs: map[levelKey][numBuckets]float64{},
		seen:  map[levelKey][numBuckets]bool{},
	}
	for k, a := range perKey {
		var probs [numBuckets]float64
		var seen [numBuckets]bool
		for i := range a {
			if a[i].pairs > 0 {
				probs[i] = a[i].dup / a[i].pairs
				seen[i] = true
			}
		}
		m.Probs[k] = probs
		m.seen[k] = seen
	}
	for i := range global {
		if global[i].pairs > 0 {
			m.Global[i] = global[i].dup / global[i].pairs
			m.gSeen[i] = true
		}
	}
	return m
}

// dupPairsIn counts ground-truth duplicate pairs among ents by grouping
// on cluster IDs.
func dupPairsIn(ents []*entity.Entity, gt *datagen.GroundTruth) int64 {
	counts := map[int]int{}
	for _, e := range ents {
		if int(e.ID) < len(gt.ClusterOf) {
			counts[gt.ClusterOf[e.ID]]++
		}
	}
	var total int64
	for _, c := range counts {
		total += entity.Pairs(c)
	}
	return total
}

// BucketBounds returns the (lo, hi] fraction bounds of each sub-range,
// for documentation and tests.
func BucketBounds() [][2]float64 {
	out := make([][2]float64, numBuckets)
	hi := 1.0
	for i := 0; i < numBuckets; i++ {
		lo := math.Pow(10, -float64(i+1))
		if i == numBuckets-1 {
			lo = 0
		}
		out[i] = [2]float64{lo, hi}
		hi = lo
	}
	return out
}

// sortKeys is a test helper: the level keys of a trained model, ordered.
func (m *BucketModel) sortKeys() []levelKey {
	keys := make([]levelKey, 0, len(m.Probs))
	for k := range m.Probs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Family != keys[j].Family {
			return keys[i].Family < keys[j].Family
		}
		return keys[i].Level < keys[j].Level
	})
	return keys
}
