package ml

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// TreeConfig controls CART induction.
type TreeConfig struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesLeaf is the minimum number of training rows a leaf may
	// hold; splits producing smaller children are rejected.
	MinSamplesLeaf int
	// MTry is the number of features sampled (without replacement) as
	// split candidates at each node; 0 means sqrt(total features).
	MTry int
}

// node is one node of a CART tree, stored in the tree's flat node slice.
// Leaves have feature == -1 and carry the positive-class probability.
type node struct {
	feature   int     // split feature, or -1 for a leaf
	threshold float64 // go left when x[feature] <= threshold
	left      int32   // index of left child
	right     int32   // index of right child
	prob      float64 // leaf: P(class 1)
}

// Tree is a trained CART binary classification tree.
type Tree struct {
	nodes []node
}

// NewTree induces a CART tree on ds using Gini impurity. rng drives the
// per-node feature subsampling. It rank-encodes ds for this one tree;
// NewForest shares one encoding across all of its trees.
func NewTree(ds *Dataset, cfg TreeConfig, rng *rand.Rand) *Tree {
	b := newTreeBuilder(ds, cfg)
	idx := make([]int32, ds.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	return b.build(idx, rng)
}

// rankIndex rank-encodes a dataset once so every tree grown on it can
// search splits by counting instead of sorting. rank[f][row] is the
// position of X[row][f] among the distinct values of column f, and
// vals[f] holds those distinct values in ascending order, so
// vals[f][rank[f][row]] == X[row][f]. Features must not be NaN: a NaN
// takes a rank of its own, and splits on its column are unspecified.
type rankIndex struct {
	rank [][]int32
	vals [][]float64
	// widest is the largest number of distinct values in any column:
	// the length of the per-rank count scratch.
	widest int
}

func newRankIndex(ds *Dataset) *rankIndex {
	n, d := ds.Len(), ds.Features()
	ix := &rankIndex{rank: make([][]int32, d), vals: make([][]float64, d)}
	ranks := make([]int32, n*d)
	var distinct []float64 // every column's distinct values, end to end
	ends := make([]int, d)
	type valRow struct {
		v   float64
		row int32
	}
	col := make([]valRow, n)
	for f := 0; f < d; f++ {
		for row := range col {
			col[row] = valRow{ds.X[row][f], int32(row)}
		}
		slices.SortFunc(col, func(a, b valRow) int { return cmp.Compare(a.v, b.v) })
		rank := ranks[f*n : (f+1)*n : (f+1)*n]
		start := len(distinct)
		for k, e := range col {
			// Distinctness is the split sweep's == test, so -0 and +0
			// share a rank.
			if k == 0 || e.v != distinct[len(distinct)-1] {
				distinct = append(distinct, e.v)
			}
			rank[e.row] = int32(len(distinct) - start - 1)
		}
		ix.rank[f], ends[f] = rank, len(distinct)
		ix.widest = max(ix.widest, len(distinct)-start)
	}
	start := 0
	for f, end := range ends {
		ix.vals[f] = distinct[start:end:end]
		start = end
	}
	return ix
}

// treeBuilder grows trees over one rank-indexed dataset. Its scratch
// (the feature permutation and the per-rank counts) is reused by every
// node of every tree it builds.
type treeBuilder struct {
	ds       *Dataset
	ix       *rankIndex
	mtry     int
	minLeaf  int
	maxDepth int
	rng      *rand.Rand
	tree     *Tree
	perm     []int
	cnt      []int // rows per rank; all zero between bestSplit calls
	posCnt   []int // positives per rank; all zero between bestSplit calls
}

func newTreeBuilder(ds *Dataset, cfg TreeConfig) *treeBuilder {
	mtry := cfg.MTry
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(ds.Features())))
		if mtry < 1 {
			mtry = 1
		}
	}
	ix := newRankIndex(ds)
	return &treeBuilder{
		ds:       ds,
		ix:       ix,
		mtry:     mtry,
		minLeaf:  max(cfg.MinSamplesLeaf, 1),
		maxDepth: cfg.MaxDepth,
		perm:     make([]int, ds.Features()),
		cnt:      make([]int, ix.widest),
		posCnt:   make([]int, ix.widest),
	}
}

// build grows one tree over the dataset rows idx (a bootstrap sample may
// repeat rows). idx is reordered in place.
func (b *treeBuilder) build(idx []int32, rng *rand.Rand) *Tree {
	t := &Tree{}
	b.tree, b.rng = t, rng
	b.grow(idx, 0)
	return t
}

// grow builds the subtree over rows idx and returns its node index. It
// partitions idx in place, so the children recurse on its two halves.
func (b *treeBuilder) grow(idx []int32, depth int) int32 {
	pos := 0
	for _, i := range idx {
		pos += b.ds.Y[i]
	}
	n := len(idx)
	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, prob: float64(pos) / float64(n)})

	if pos == 0 || pos == n {
		return id // pure
	}
	if b.maxDepth > 0 && depth >= b.maxDepth {
		return id
	}
	if n < 2*b.minLeaf {
		return id
	}

	feat, thr, ok := b.bestSplit(idx, pos)
	if !ok {
		return id
	}

	// The partition compares values against the threshold exactly as
	// prediction does, so a row's training side and its serving side can
	// never disagree.
	split, j := 0, n
	for split < j {
		if b.ds.X[idx[split]][feat] <= thr {
			split++
		} else {
			j--
			idx[split], idx[j] = idx[j], idx[split]
		}
	}
	// Recurse; children are appended after this node so the indices are
	// assigned by the recursive calls.
	l := b.grow(idx[:split], depth+1)
	r := b.grow(idx[split:], depth+1)
	nd := &b.tree.nodes[id]
	nd.feature = feat
	nd.threshold = thr
	nd.left = l
	nd.right = r
	return id
}

// bestSplit searches for the split with the lowest weighted Gini
// impurity. It considers mtry randomly sampled candidate features but —
// like standard Random Forest implementations — keeps inspecting further
// features when the sampled ones admit no valid partition (sparse
// fingerprint vectors routinely make a 16-feature sample all-constant
// within a node), declaring a leaf only when no feature splits the node.
// pos is the positive count over idx.
//
// The search counts instead of sorting. For a candidate feature it finds
// the node's rank range [lo, hi] (lo == hi: constant here, no split),
// tallies rows and positives per rank, and sweeps the non-empty ranks in
// ascending order. That visits exactly the boundaries a sort of the
// node's values would — between each pair of adjacent distinct values
// present in the node — with the same left/right counts, so the same
// Gini arithmetic, the same strict < tie rule and the same threshold
// (the midpoint of those two values) pick the same split. The feature
// order is a reused buffer filled with rand.Perm's own Intn(i+1) draws,
// so the rng stream, and with it every later node and tree, is the one
// rand.Perm would leave.
func (b *treeBuilder) bestSplit(idx []int32, pos int) (feature int, threshold float64, ok bool) {
	n := len(idx)
	bestGini := math.Inf(1)
	parentGini := giniImpurity(pos, n)

	perm := b.perm
	for i := range perm {
		j := b.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	for tried, f := range perm {
		// Stop after the mtry quota once a usable split exists.
		if tried >= b.mtry && ok {
			break
		}
		rank := b.ix.rank[f]
		lo, hi := rank[idx[0]], rank[idx[0]]
		for _, row := range idx[1:] {
			r := rank[row]
			lo, hi = min(lo, r), max(hi, r)
		}
		if lo == hi {
			continue
		}
		cnt, posCnt := b.cnt[:hi-lo+1], b.posCnt[:hi-lo+1]
		for _, row := range idx {
			r := rank[row] - lo
			cnt[r]++
			posCnt[r] += b.ds.Y[row]
		}
		vals := b.ix.vals[f][lo : hi+1]

		// Sweep split points between adjacent distinct values, zeroing
		// the counts behind the sweep for the next feature.
		leftN, leftPos, prev := 0, 0, -1
		for r, c := range cnt {
			if c == 0 {
				continue
			}
			if prev >= 0 {
				rightN := n - leftN
				if leftN >= b.minLeaf && rightN >= b.minLeaf {
					rightPos := pos - leftPos
					g := (float64(leftN)*giniImpurity(leftPos, leftN) +
						float64(rightN)*giniImpurity(rightPos, rightN)) / float64(n)
					// Only impurity-decreasing splits are valid.
					if g < bestGini && g < parentGini {
						bestGini = g
						feature = f
						threshold = (vals[prev] + vals[r]) / 2
						ok = true
					}
				}
			}
			leftN += c
			leftPos += posCnt[r]
			cnt[r], posCnt[r] = 0, 0
			prev = r
		}
	}
	return feature, threshold, ok
}

// giniImpurity returns the Gini impurity of a node with pos positives out
// of n rows.
func giniImpurity(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// PredictProb returns the positive-class probability for x.
func (t *Tree) PredictProb(x []float64) float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.prob
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// Predict returns the predicted class (0 or 1) for x.
func (t *Tree) Predict(x []float64) int {
	if t.PredictProb(x) >= 0.5 {
		return 1
	}
	return 0
}

// NodeCount returns the number of nodes in the tree.
func (t *Tree) NodeCount() int { return len(t.nodes) }

// Depth returns the depth of the tree (a lone root has depth 0).
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var walk func(i int32) int
	walk = func(i int32) int {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return 0
		}
		l := walk(nd.left)
		r := walk(nd.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}
