package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/ml"
)

// TestShardedClassifyStats: the sharded bank's fused counters are the
// sum over local shards, and a scattered batch advances them by at
// least one count per probe per shard (every local shard classifies
// every row of the shared matrix).
func TestShardedClassifyStats(t *testing.T) {
	train, probes := shardTrainingSet(t, 5, 10)
	sb, err := TrainSharded(smallConfig(), 2, train)
	if err != nil {
		t.Fatal(err)
	}
	before := sb.ClassifyStats()
	sb.IdentifyBatch(probes, 2)
	after := sb.ClassifyStats()
	wantMin := uint64(sb.Shards() * len(probes))
	if got := after.Fingerprints - before.Fingerprints; got < wantMin {
		t.Errorf("fused fingerprint count advanced by %d, want >= %d", got, wantMin)
	}
	if after.Nanos < before.Nanos {
		t.Errorf("fused nano counter went backwards: %d -> %d", before.Nanos, after.Nanos)
	}
}

// TestMinVotesFor checks the integer accept threshold against the
// oracle's float comparison at the edges, including a threshold no
// vote fraction can reach (which must never accept).
func TestMinVotesFor(t *testing.T) {
	cases := []struct {
		trees     int
		threshold float64
		want      int32
	}{
		{4, 0.0, 0},
		{4, 0.5, 2},
		{4, 0.51, 3},
		{4, 1.0, 4},
		{4, 1.5, 5}, // unreachable: trees+1 never accepts
	}
	for _, c := range cases {
		if got := minVotesFor(c.trees, c.threshold); got != c.want {
			t.Errorf("minVotesFor(%d, %v) = %d, want %d", c.trees, c.threshold, got, c.want)
		}
		// Cross-check against the oracle comparison for every vote count.
		for v := 0; v <= c.trees; v++ {
			oracle := float64(v)/float64(c.trees) >= c.threshold
			fused := int32(v) >= minVotesFor(c.trees, c.threshold)
			if oracle != fused {
				t.Errorf("trees=%d thr=%v votes=%d: oracle %v, fused %v", c.trees, c.threshold, v, oracle, fused)
			}
		}
	}
}

// TestBankShardSurface covers the plain Bank's degenerate single-shard
// surface: a one-element version vector and shard-0 ownership of every
// enrolled type.
func TestBankShardSurface(t *testing.T) {
	b, _ := trainedBank(t, map[string]int64{"camA": 100, "plugB": 200}, 12)
	if got := b.Versions(); !reflect.DeepEqual(got, []uint64{b.Version()}) {
		t.Errorf("Versions() = %v, want [%d]", got, b.Version())
	}
	if s, ok := b.ShardOf("camA"); !ok || s != 0 {
		t.Errorf("ShardOf(camA) = %d, %v, want 0, true", s, ok)
	}
	if _, ok := b.ShardOf("ghost"); ok {
		t.Error("ShardOf(ghost) reported an unenrolled type")
	}
	// The vector is cached between enrolments: an enrolment must yield
	// a fresh vector and leave the one handed out before untouched.
	before := b.Versions()
	if err := b.Enroll("hubC", synthType(300, 12, rand.New(rand.NewSource(5)))); err != nil {
		t.Fatal(err)
	}
	if got := b.Versions(); !reflect.DeepEqual(got, []uint64{b.Version()}) || got[0] != before[0]+1 {
		t.Errorf("after Enroll: Versions() = %v, before %v, Version() = %d", got, before, b.Version())
	}
	if before[0] != b.Version()-1 {
		t.Errorf("held vector changed to %v by Enroll", before)
	}
}

// TestIdentifyEditOnly: the classifier-free path answers from edit
// distance alone (§IV-B) and must still identify genuine probes.
func TestIdentifyEditOnly(t *testing.T) {
	b, test := trainedBank(t, map[string]int64{"camA": 100, "plugB": 200, "hubC": 300}, 15)
	correct, total := 0, 0
	for name, prints := range test {
		for _, f := range prints {
			res := b.IdentifyEditOnly(f)
			if !res.Known || res.Stage != StageDiscrimination {
				t.Fatalf("%s: edit-only result known=%v stage=%v", name, res.Known, res.Stage)
			}
			if res.Type == name {
				correct++
			}
			total++
		}
	}
	if correct*2 < total {
		t.Errorf("edit-only identified %d/%d probes", correct, total)
	}
}

// TestSetOwnerValidation: the flip-route step rejects unknown types and
// out-of-range destinations, and a legal flip is visible through
// ShardOf immediately.
func TestSetOwnerValidation(t *testing.T) {
	train, _ := shardTrainingSet(t, 4, 8)
	sb, err := TrainSharded(smallConfig(), 2, train)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.SetOwner("ghost", 0); err == nil {
		t.Error("SetOwner accepted an unenrolled type")
	}
	name := sb.Types()[0]
	if err := sb.SetOwner(name, -1); err == nil {
		t.Error("SetOwner accepted shard -1")
	}
	if err := sb.SetOwner(name, sb.Shards()); err == nil {
		t.Error("SetOwner accepted an out-of-range shard")
	}
	src, _ := sb.ShardOf(name)
	dst := (src + 1) % sb.Shards()
	if err := sb.SetOwner(name, dst); err != nil {
		t.Fatalf("SetOwner(%s, %d): %v", name, dst, err)
	}
	if got, _ := sb.ShardOf(name); got != dst {
		t.Errorf("ShardOf(%s) = %d after flip, want %d", name, got, dst)
	}
}

// TestSortStrings covers the snapshot codec's canonical-order helper,
// whose ordering every snapshot byte-equality guarantee rests on.
func TestSortStrings(t *testing.T) {
	s := []string{"hubC", "camA", "plugB", "camA"}
	sortStrings(s)
	if !reflect.DeepEqual(s, []string{"camA", "camA", "hubC", "plugB"}) {
		t.Errorf("sortStrings = %v", s)
	}
	one := []string{"solo"}
	sortStrings(one)
	sortStrings(nil)
	if one[0] != "solo" {
		t.Errorf("single-element sort mutated: %v", one)
	}
}

// TestClassifyDefaultWorkers drives the workers<=0 (GOMAXPROCS) branch
// of every batch classify entry point and holds them to each other.
func TestClassifyDefaultWorkers(t *testing.T) {
	seeds := map[string]int64{"camA": 100, "plugB": 200, "hubC": 300}
	b, test := trainedBank(t, seeds, 12)
	rng := rand.New(rand.NewSource(5))
	var fps []*fingerprint.Fingerprint
	for _, prints := range test {
		fps = append(fps, prints...)
	}
	rng.Shuffle(len(fps), func(i, j int) { fps[i], fps[j] = fps[j], fps[i] })

	fixed := make([][]float64, len(fps))
	var m ml.SampleMatrix
	m.Reset(len(fps), b.cfg.FixedPackets*features.NumFeatures)
	for i, f := range fps {
		fixed[i] = f.FixedN(b.cfg.FixedPackets)
		m.SetRow(i, fixed[i])
	}

	want := b.ClassifyMatrix(&m, 1)
	if got := b.ClassifyBatch(fps, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("ClassifyBatch(workers=0) diverged from single-worker ClassifyMatrix")
	}
	if got := b.ClassifyMatrix(&m, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("ClassifyMatrix(workers=0) diverged from single-worker ClassifyMatrix")
	}
	if got := b.ClassifyBatchOracle(fixed, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("ClassifyBatchOracle(workers=0) diverged from fused verdicts")
	}
}
