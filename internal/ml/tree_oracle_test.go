package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refNewTree is the sort-based CART builder that the rank-count split
// search replaced, kept as its oracle: per node and candidate feature it
// copies the node's (value, label) pairs, sorts them and sweeps the
// boundaries between distinct consecutive values. NewTree must grow the
// same tree node for node from the same rng.
func refNewTree(ds *Dataset, cfg TreeConfig, rng *rand.Rand) *Tree {
	mtry := cfg.MTry
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(ds.Features())))
		if mtry < 1 {
			mtry = 1
		}
	}
	b := &refBuilder{ds: ds, cfg: cfg, mtry: mtry, rng: rng, tree: &Tree{}}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	b.grow(idx, 0)
	return b.tree
}

// refForestTrees trains the trees of a forest the way NewForest did
// before it shared one rank index: each tree on a copied bootstrap
// subset of ds.
func refForestTrees(ds *Dataset, cfg ForestConfig) []*Tree {
	nTrees := cfg.Trees
	if nTrees <= 0 {
		nTrees = DefaultTrees
	}
	master := rand.New(rand.NewSource(cfg.Seed))
	trees := make([]*Tree, nTrees)
	for i := range trees {
		rng := rand.New(rand.NewSource(master.Int63()))
		sample := &Dataset{X: make([][]float64, ds.Len()), Y: make([]int, ds.Len())}
		for j := range sample.X {
			row := rng.Intn(ds.Len())
			sample.X[j], sample.Y[j] = ds.X[row], ds.Y[row]
		}
		trees[i] = refNewTree(sample, cfg.Tree, rng)
	}
	return trees
}

type refBuilder struct {
	ds   *Dataset
	cfg  TreeConfig
	mtry int
	rng  *rand.Rand
	tree *Tree
}

func (b *refBuilder) grow(idx []int, depth int) int32 {
	pos := 0
	for _, i := range idx {
		pos += b.ds.Y[i]
	}
	n := len(idx)
	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, prob: float64(pos) / float64(n)})
	if pos == 0 || pos == n {
		return id
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return id
	}
	minLeaf := max(b.cfg.MinSamplesLeaf, 1)
	if n < 2*minLeaf {
		return id
	}
	feat, thr, ok := b.bestSplit(idx, pos, minLeaf)
	if !ok {
		return id
	}
	var left, right []int
	for _, i := range idx {
		if b.ds.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	nd := &b.tree.nodes[id]
	nd.feature, nd.threshold, nd.left, nd.right = feat, thr, l, r
	return id
}

func (b *refBuilder) bestSplit(idx []int, pos, minLeaf int) (feature int, threshold float64, ok bool) {
	n := len(idx)
	bestGini := math.Inf(1)
	parentGini := giniImpurity(pos, n)
	type valLabel struct {
		v float64
		y int
	}
	vals := make([]valLabel, n)
	for tried, f := range b.rng.Perm(b.ds.Features()) {
		if tried >= b.mtry && ok {
			break
		}
		for i, row := range idx {
			vals[i] = valLabel{v: b.ds.X[row][f], y: b.ds.Y[row]}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
		leftN, leftPos := 0, 0
		for i := 0; i < n-1; i++ {
			leftN++
			leftPos += vals[i].y
			if vals[i].v == vals[i+1].v {
				continue
			}
			rightN := n - leftN
			if leftN < minLeaf || rightN < minLeaf {
				continue
			}
			rightPos := pos - leftPos
			g := (float64(leftN)*giniImpurity(leftPos, leftN) +
				float64(rightN)*giniImpurity(rightPos, rightN)) / float64(n)
			if g < bestGini && g < parentGini {
				bestGini = g
				feature = f
				threshold = (vals[i].v + vals[i+1].v) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

// oracleDataset draws a seeded dataset whose columns mix the shapes the
// split search must agree on: constant columns, small integers with
// heavy duplication, negative fractions, wide continuous values and
// signed zeros.
func oracleDataset(rng *rand.Rand) *Dataset {
	n := 2 + rng.Intn(80)
	d := 1 + rng.Intn(12)
	kinds := make([]int, d)
	for f := range kinds {
		kinds[f] = rng.Intn(5)
	}
	posRate := rng.Float64()
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, d)
		for f, kind := range kinds {
			switch kind {
			case 0: // constant
				x[i][f] = 7
			case 1: // small integers, many duplicates
				x[i][f] = float64(rng.Intn(4))
			case 2: // negative and fractional
				x[i][f] = -float64(rng.Intn(6)) - 0.25*float64(rng.Intn(4))
			case 3: // wide continuous
				x[i][f] = rng.NormFloat64() * 1e6
			case 4: // signed zeros beside small values
				x[i][f] = []float64{0, math.Copysign(0, -1), 0.5, -0.5}[rng.Intn(4)]
			}
		}
		if rng.Float64() < posRate {
			y[i] = 1
		}
	}
	return &Dataset{X: x, Y: y}
}

// sameTree reports the first node where got differs from want in
// feature, threshold bits, children or leaf probability bits.
func sameTree(got, want *Tree) error {
	if len(got.nodes) != len(want.nodes) {
		return fmt.Errorf("%d nodes, oracle %d", len(got.nodes), len(want.nodes))
	}
	for i, g := range got.nodes {
		w := want.nodes[i]
		if g.feature != w.feature || math.Float64bits(g.threshold) != math.Float64bits(w.threshold) ||
			g.left != w.left || g.right != w.right || math.Float64bits(g.prob) != math.Float64bits(w.prob) {
			return fmt.Errorf("node %d = %+v, oracle %+v", i, g, w)
		}
	}
	return nil
}

// oracleConfigs covers the tree knobs the split search reads: the
// default and explicit MTry, MinSamplesLeaf above 1 and a depth limit.
var oracleConfigs = []TreeConfig{
	{},
	{MTry: 1},
	{MTry: 3},
	{MTry: 100}, // more than any dataset's features: every feature
	{MinSamplesLeaf: 2},
	{MinSamplesLeaf: 5, MTry: 2},
	{MaxDepth: 1},
	{MaxDepth: 3, MinSamplesLeaf: 3},
}

// TestTreeMatchesSortOracle: NewTree grows the sort-based builder's tree
// node for node, and leaves the rng where the oracle leaves it.
func TestTreeMatchesSortOracle(t *testing.T) {
	gen := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		ds := oracleDataset(gen)
		cfg := oracleConfigs[trial%len(oracleConfigs)]
		seed := gen.Int63()
		gotRNG, wantRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := NewTree(ds, cfg, gotRNG), refNewTree(ds, cfg, wantRNG)
		if err := sameTree(got, want); err != nil {
			t.Fatalf("trial %d (%d×%d, %+v): %v", trial, ds.Len(), ds.Features(), cfg, err)
		}
		if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
			t.Fatalf("trial %d: rng diverged after the tree (%d vs %d)", trial, g, w)
		}
	}
}

// TestForestMatchesSortOracle: every tree of NewForest — grown over
// bootstrap row indices through one shared rank index — equals the
// oracle's tree grown on a copied bootstrap subset.
func TestForestMatchesSortOracle(t *testing.T) {
	gen := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		ds := oracleDataset(gen)
		cfg := ForestConfig{Trees: 12, Tree: oracleConfigs[trial%len(oracleConfigs)], Seed: gen.Int63()}
		f, err := NewForest(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range refForestTrees(ds, cfg) {
			if err := sameTree(f.trees[i], want); err != nil {
				t.Fatalf("trial %d tree %d (%d×%d, %+v): %v", trial, i, ds.Len(), ds.Features(), cfg.Tree, err)
			}
		}
	}
}
