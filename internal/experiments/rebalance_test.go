package experiments

import (
	"repro/internal/iotssp"

	"runtime"
	"strings"
	"testing"
)

// TestRunRebalanceTinyConfig exercises the whole live-topology drill at
// minimal cost: the mid-run type migrations and rolling member
// replacement with zero lost verdicts, every live verdict bit-equal to
// one of the two baselines, and the exactly-once invalidation audit
// (RunRebalance itself errors if any of those properties fail).
func TestRunRebalanceTinyConfig(t *testing.T) {
	ratio := 0.0
	if runtime.GOMAXPROCS(0) >= 4 {
		// Same parallel-hardware gate as the replicated experiment: on a
		// starved box scheduler noise dwarfs the rollout cost.
		ratio = 2.0
	}
	res, err := RunRebalance(RebalanceConfig{
		Types:       6,
		Runs:        5,
		Trees:       15,
		ProbeModels: 1,
		Requests:    96,
		Gateways:    2,
		InFlight:    4,
		Replicas:    2,
		BatchSize:   8,
		MaxP99Ratio: ratio,
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 || res.Mismatches != 0 {
		t.Fatalf("lost=%d mismatches=%d", res.Lost, res.Mismatches)
	}
	if !res.Rebalanced || !res.Replaced {
		t.Errorf("rollout drills did not run: rebalanced=%v replaced=%v", res.Rebalanced, res.Replaced)
	}
	if res.MigratedOut == "" || res.MigratedIn == "" || res.MigratedOut == res.MigratedIn {
		t.Errorf("degenerate migration pair: out=%q in=%q", res.MigratedOut, res.MigratedIn)
	}
	if res.DependentProbes == 0 {
		t.Error("invalidation audit covered no dependent probes")
	}
	if res.Invalidations != uint64(res.DependentProbes) {
		t.Errorf("invalidations = %d, want exactly %d (once per dependent entry)", res.Invalidations, res.DependentProbes)
	}
	if res.SteadyPerSec <= 0 || res.FinalPerSec <= 0 || res.LivePerSec <= 0 {
		t.Fatalf("degenerate rates: %+v", res)
	}
	groups := unmarshalKind[iotssp.ShardGroupStats](t, res.Metrics, "shard_group")
	if res.Metrics == nil || len(groups) != 1 || len(groups[0].Members) != 2 {
		t.Fatalf("metrics snapshot incomplete: %+v", res.Metrics)
	}

	out := res.RenderRebalance()
	for _, want := range []string{"steady (initial topology)", "rebalance mid-run", "rollout", "invalidation audit", "metrics:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRunRebalanceWireDict replays the live-topology drill on the
// dictionary wire: the migrations and the rolling member replacement
// tear down and re-open dictionary-coded connections mid-run, and the
// experiment's own bit-equality and zero-lost assertions prove the
// dictionaries reset coherently through every sever.
func TestRunRebalanceWireDict(t *testing.T) {
	res, err := RunRebalance(RebalanceConfig{
		Types:       6,
		Runs:        5,
		Trees:       15,
		ProbeModels: 1,
		Requests:    96,
		Gateways:    2,
		InFlight:    4,
		Replicas:    2,
		BatchSize:   8,
		Seed:        13,
		Wire:        iotssp.WireDict,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 || res.Mismatches != 0 {
		t.Fatalf("lost=%d mismatches=%d", res.Lost, res.Mismatches)
	}
	if !res.Rebalanced || !res.Replaced {
		t.Errorf("rollout drills did not run: rebalanced=%v replaced=%v", res.Rebalanced, res.Replaced)
	}
	groups := unmarshalKind[iotssp.ShardGroupStats](t, res.Metrics, "shard_group")
	if len(groups) != 1 {
		t.Fatalf("metrics snapshot incomplete: %+v", res.Metrics)
	}
	var hits uint64
	for _, m := range groups[0].Members {
		hits += m.Shard.Transport.DictHits
	}
	if hits == 0 {
		t.Errorf("group member links never engaged the dictionary: %+v", groups[0].Members)
	}
}

// TestRunRebalanceRejectsBadConfigs: each of the three partitions must
// keep at least one type through the migrations, and a one-member group
// cannot roll a member.
func TestRunRebalanceRejectsBadConfigs(t *testing.T) {
	if _, err := RunRebalance(RebalanceConfig{Types: 5}); err == nil {
		t.Error("five-type rebalance config accepted despite emptying a partition mid-migration")
	}
	if _, err := RunRebalance(RebalanceConfig{Types: 27}); err == nil {
		t.Error("full-catalog rebalance config accepted")
	}
	if _, err := RunRebalance(RebalanceConfig{Replicas: 1}); err == nil {
		t.Error("single-member shard group accepted")
	}
}
