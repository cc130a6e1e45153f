package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/enforce"
	"repro/internal/iotssp"
)

// smokeShape keeps a smoke run short: one set-up and one measured home.
var smokeShape = shape{setups: 1, homes: 1, untracedHomes: 1}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func names(list []struct{ Name string }) []string {
	out := make([]string, len(list))
	for i, m := range list {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func reported(rep *report) []string {
	out := make([]string, len(rep.Metrics))
	for i, m := range rep.Metrics {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEveryWorkloadEmitsEveryMetric requires every workload of
// BENCHMARK.json to exist, then runs every defined workload briefly,
// untraced and traced, and requires exactly the named end-to-end and
// per-layer metrics and passing output checks.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	bf := readBenchmarkFile(t)
	defined := make(map[string]bool)
	for _, w := range workloads {
		defined[w.name] = true
	}
	for _, bw := range bf.Workloads {
		if !defined[bw.Name] {
			t.Fatalf("workload %q is not defined", bw.Name)
		}
	}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			rep, _, err := bench(*w, smokeShape, 1, 500*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			want := names(bf.EndToEnd)
			if traced {
				want = names(bf.PerLayer)
			}
			if got := reported(rep); !equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
			}
		}
	}
}

// TestCorruptedVerdictFailsCheck serves real verdicts and a real home,
// then corrupts one verdict field or one installed rule at a time: every
// corruption must fail the output check.
func TestCorruptedVerdictFailsCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	models, err := recurring(1)
	if err != nil {
		t.Fatal(err)
	}
	macs := fleetMACs(1, 64)
	st, err := buildStack(1, iotssp.WireDict, models, macs[:2], false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	refs := [][]iotssp.Response{references(st.bank, models)}
	p := openLoop(st.pool, nil, 500, 200*time.Millisecond, func(i int) job {
		return job{mac: macs[i%len(macs)], fp: models[i%len(models)], ref: i % len(models)}
	})
	if err := checkPhase(p, refs, nil); err != nil {
		t.Fatalf("served verdicts fail the check: %v", err)
	}
	corruptions := map[string]func(*iotssp.Response){
		"type":      func(r *iotssp.Response) { r.DeviceType += "x" },
		"level":     func(r *iotssp.Response) { r.Level += "x" },
		"known":     func(r *iotssp.Response) { r.Known = !r.Known },
		"stage":     func(r *iotssp.Response) { r.Stage += "x" },
		"endpoints": func(r *iotssp.Response) { r.PermittedEndpoints = append(r.PermittedEndpoints, "1.2.3.4") },
		"mac":       func(r *iotssp.Response) { r.MAC = "02:00:00:00:00:00" },
	}
	for name, corrupt := range corruptions {
		good := p.outs[0].resp
		corrupt(&p.outs[0].resp)
		if checkPhase(p, refs, nil) == nil {
			t.Errorf("corrupted %s passes the check", name)
		}
		p.outs[0].resp = good
	}

	hm, err := makeHome(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gatewayConfig(1)
	gw, err := replayHome(hm, cfg, st.pool, nil, &onboardResult{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceService(st.bank)
	if err := checkHome(hm, cfg, gw, ref); err != nil {
		t.Fatalf("onboarded home fails the check: %v", err)
	}
	rule, _ := gw.Engine().RuleFor(hm.macs[0])
	wrong := rule
	wrong.Level = enforce.Trusted
	if rule.Level == enforce.Trusted {
		wrong.Level = enforce.Strict
	}
	if err := gw.Engine().SetRule(wrong); err != nil {
		t.Fatal(err)
	}
	if checkHome(hm, cfg, gw, ref) == nil {
		t.Error("a wrong isolation level passes the onboarding check")
	}
}

// TestLiveVersions checks which bank versions a request may have seen
// while the churn writer ran.
func TestLiveVersions(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	ops := []writeOp{
		{start: at(10), end: at(20)},
		{start: at(30), end: at(40)},
		{start: at(50)}, // in progress
	}
	cases := []struct {
		a, b   int
		lo, hi int
	}{
		{0, 5, 0, 0},
		{0, 15, 0, 1},
		{21, 29, 1, 1},
		{25, 35, 1, 2},
		{45, 46, 2, 2},
		{55, 60, 2, 3},
	}
	for _, c := range cases {
		lo, hi := liveVersions(ops, at(c.a), at(c.b))
		if lo != c.lo || hi != c.hi {
			t.Errorf("request %d..%d ms: versions %d..%d, want %d..%d", c.a, c.b, lo, hi, c.lo, c.hi)
		}
	}
}
