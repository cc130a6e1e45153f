// Package ml implements the machine-learning substrate of the IoT
// Sentinel reproduction: CART decision trees, Breiman Random Forests for
// binary classification, and stratified cross-validation utilities.
//
// Everything is built from scratch on the standard library. All
// randomness (bootstrap sampling, per-node feature subsampling, fold
// shuffling) flows from explicitly seeded generators, so training is
// bit-for-bit reproducible.
//
// Split search counts instead of sorting. NewForest rank-encodes its
// dataset once: per feature, each row's rank among the column's distinct
// values plus those values in ascending order. Every tree of the forest
// grows over its bootstrap row indices into that one dataset, and a
// node tallies rows and positives per rank for each candidate feature,
// then sweeps the non-empty ranks in order. The sweep meets the same
// boundaries, with the same counts, as sorting the node's values would,
// so the Gini arithmetic, the strict tie rule and the thresholds
// (midpoints of adjacent distinct values present in the node) are those
// of a sort-based search; the per-node feature order makes rand.Perm's
// exact draws into a reused buffer, so the rng stream is rand.Perm's
// too. The package tests keep a sort-based builder as the oracle.
package ml

import (
	"fmt"
	"math/rand"
)

// Dataset is a design matrix with binary labels. Rows of X are feature
// vectors; Y[i] is the class (0 or 1) of row i.
type Dataset struct {
	X [][]float64
	Y []int
}

// NewDataset validates and wraps the given matrix and labels. The slices
// are retained, not copied.
func NewDataset(x [][]float64, y []int) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d rows but %d labels", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("ml: empty dataset")
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), d)
		}
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return nil, fmt.Errorf("ml: label %d of row %d is not binary", label, i)
		}
	}
	return &Dataset{X: x, Y: y}, nil
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// Features returns the number of columns.
func (d *Dataset) Features() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// SampleWithoutReplacement draws k distinct values from [0,n) using a
// partial Fisher-Yates shuffle. If k >= n it returns all n indices in
// shuffled order.
func SampleWithoutReplacement(n, k int, rng *rand.Rand) []int {
	perm := rng.Perm(n)
	if k > n {
		k = n
	}
	return perm[:k]
}
