package ml

import (
	"fmt"
	"math/rand"
)

// ForestConfig controls Random Forest training.
type ForestConfig struct {
	// Trees is the number of trees; 0 means DefaultTrees.
	Trees int
	// Tree configures the individual CART trees.
	Tree TreeConfig
	// Seed seeds the forest's randomness (bootstrap and feature
	// subsampling). Two forests trained with the same seed on the same
	// data are identical.
	Seed int64
	// Flat selects the flattened serving layout's compaction (float32
	// thresholds, leaf caps). The zero value keeps predictions
	// bit-identical to the trained trees; see FlatConfig.
	Flat FlatConfig
}

// DefaultTrees is the default forest size.
const DefaultTrees = 100

// Forest is a trained Random Forest binary classifier.
//
// After training the trees are additionally flattened into a
// struct-of-arrays node layout (see flatForest) that all prediction
// paths traverse; the per-tree representation is kept for
// introspection (NodeCount, Depth). A Forest is immutable after
// NewForest and safe for concurrent prediction.
type Forest struct {
	trees []*Tree
	flat  *flatForest
}

// NewForest trains a Random Forest on ds: each tree is induced on a
// bootstrap sample of the rows with per-node feature subsampling
// (Breiman, 2001).
func NewForest(ds *Dataset, cfg ForestConfig) (*Forest, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("ml: training on empty dataset")
	}
	nTrees := cfg.Trees
	if nTrees <= 0 {
		nTrees = DefaultTrees
	}
	master := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{trees: make([]*Tree, nTrees)}
	// Every tree grows over rows of ds itself, through one rank index
	// and one bootstrap buffer.
	b := newTreeBuilder(ds, cfg.Tree)
	n := ds.Len()
	sample := make([]int32, n)
	rng := rand.New(rand.NewSource(0))
	for i := range f.trees {
		// Derive one generator per tree from the master stream so tree
		// training is independent of the others' consumption pattern.
		// Re-seeding one source leaves it in the state a new source of
		// that seed starts in.
		rng.Seed(master.Int63())
		// Bootstrap: n rows drawn with replacement.
		for j := range sample {
			sample[j] = int32(rng.Intn(n))
		}
		f.trees[i] = b.build(sample, rng)
	}
	f.flat = flatten(f.trees, cfg.Flat)
	return f, nil
}

// PredictProb returns the fraction of trees voting for the positive
// class.
func (f *Forest) PredictProb(x []float64) float64 {
	return float64(f.flat.votes(x)) / float64(len(f.trees))
}

// PredictProbBatch returns PredictProb for every sample of xs,
// evaluating samples in parallel across up to workers goroutines (<= 0
// selects GOMAXPROCS). Each output cell depends only on its own sample,
// so the slice is bit-identical to calling PredictProb in a loop.
func (f *Forest) PredictProbBatch(xs [][]float64, workers int) []float64 {
	if len(xs) == 0 {
		return nil
	}
	votes := make([]int, len(xs))
	f.flat.votesBatch(xs, votes, defaultWorkers(workers))
	out := make([]float64, len(xs))
	for i, v := range votes {
		out[i] = float64(v) / float64(len(f.trees))
	}
	return out
}

// Predict returns the majority-vote class for x.
func (f *Forest) Predict(x []float64) int {
	if f.PredictProb(x) >= 0.5 {
		return 1
	}
	return 0
}

// Trees returns the number of trees in the forest.
func (f *Forest) Trees() int { return len(f.trees) }

// FlatBytes returns the byte size of the flattened serving arrays —
// the cache-resident footprint the FlatConfig compaction shrinks.
func (f *Forest) FlatBytes() int { return f.flat.bytes() }
