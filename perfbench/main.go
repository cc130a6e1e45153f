// Command perfbench is the repository's end-to-end benchmark. It trains
// the 27-type bank, serves it from an IoT Security Service on loopback
// TCP, drives it open loop through the pooled gateway client, and then
// onboards homes of devices through fresh Security Gateways that
// identify over the same pool. Every verdict and every installed rule is
// checked against an in-process reference.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload fleet-repeat --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 a traced run reports the
// per-layer ones and the tracing overhead, and writes its spans to
// --spans.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/devices"
	"repro/internal/gateway"
	"repro/internal/iotssp"
)

// workload is one traffic mix offered to the IoTSSP. Every workload
// also onboards homes between its fixed-rate segments, so every run
// reports every end-to-end metric.
type workload struct {
	name  string
	wire  iotssp.WireMode
	churn bool // a writer removes and re-enrols a type meanwhile
	// rate is the fixed offered rate in verdicts/s, a quarter to a fifth
	// of the workload's slo_rate_vps on a 2-core machine, off the knee
	// where the shared machine's noise dominates.
	rate float64
}

var workloads = []workload{
	{name: "fleet-repeat", wire: iotssp.WireDict, rate: 8000},
	{name: "fleet-churn", wire: iotssp.WireDict, churn: true, rate: 8000},
}

// shape is the amount of fixed work in a run: set-ups (set-up time is
// their median), measured homes, and the homes a traced run replays
// untraced to measure the tracing overhead.
type shape struct {
	setups, homes, untracedHomes int
}

// fullShape is every run's shape: 45 homes × 27 devices = 1215
// onboardings, so the onboarding p99 has 12 samples beyond it.
var fullShape = shape{setups: 3, homes: 45, untracedHomes: 8}

// Phase lengths scale with --seconds.
const (
	fixedShare   = 0.5
	slots        = 4
	probeShare   = 0.05
	maxProbes    = 10
	sloStep      = 1.04                   // bisect until the bracket is within 4%
	churnPeriod  = 250 * time.Millisecond // one remove or re-enrol per period
	warmMACCount = 4
	fleetSize    = 4096
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 16, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	spans := fs.String("spans", "", "span output file of a traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i := range workloads {
			names[i] = workloads[i].name
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", w.name, *seed)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	rep, rec, err := bench(*w, fullShape, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		return err
	}
	if rec != nil {
		if err := rec.writeJSONL(*spans); err != nil {
			return err
		}
		rep.note("spans written to %s", *spans)
	}
	return rep.write(os.Stdout)
}

// bench runs one workload and returns its report; the recorder is
// non-nil for a traced run.
func bench(w workload, sh shape, seed int64, dur time.Duration, traced bool) (*report, *recorder, error) {
	rep := &report{Correct: true}
	mark := time.Now()
	lap := func(phase string) {
		rep.note("%-12s %6.1f s wall", phase, time.Since(mark).Seconds())
		mark = time.Now()
	}
	rep.note("workload %s seed %d: nproc %d, GOMAXPROCS %d, fixed rate %.0f verdicts/s",
		w.name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), w.rate)

	models, err := recurring(seed)
	if err != nil {
		return nil, nil, err
	}
	macs := fleetMACs(seed, fleetSize)
	warmMACs := macs[:warmMACCount]

	var trainS []float64
	st, setups, err := setupTimes(sh.setups, func() (*stack, error) {
		s, err := buildStack(seed, w.wire, models, warmMACs, traced)
		if err == nil {
			trainS = append(trainS, s.train.Seconds())
		}
		return s, err
	})
	if err != nil {
		return nil, nil, err
	}
	defer st.close()

	// Expected verdicts. The churn writer always cycles the first Table
	// II type, so every seed's writer does the same training work.
	heldOut := devices.Names()[0]
	var writer *churnWriter
	var refs [][]iotssp.Response
	fixedDur := time.Duration(fixedShare * float64(dur))
	probeDur := time.Duration(probeShare * float64(dur))
	if w.churn {
		// Enough ops for the fixed-rate segments and every probe with its
		// input, drain and check; a writer out of ops stops writing.
		budget := fixedDur + maxProbes*(probeDur+400*time.Millisecond)
		if traced {
			budget += fixedDur
		}
		maxOps := int(budget/churnPeriod) + 2
		refs, err = churnReferences(st.bank, bankConfig(), heldOut, st.corpus[heldOut], models, maxOps)
		if err != nil {
			return nil, nil, err
		}
	} else {
		refs = [][]iotssp.Response{references(st.bank, models)}
	}

	// inputsFor returns the requests of one open-loop phase of n
	// requests: recurring models from random fleet MACs.
	rng := rand.New(rand.NewSource(seed))
	inputsFor := func(n int) func(int) job {
		js := make([]job, n)
		for i := range js {
			r := rng.Intn(len(models))
			js[i] = job{mac: macs[rng.Intn(len(macs))], fp: models[r], ref: r}
		}
		return func(i int) job { return js[i] }
	}

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	if w.churn {
		writer = &churnWriter{bank: st.bank, name: heldOut, prints: st.corpus[heldOut], period: churnPeriod, maxOps: len(refs) - 1, rec: rec}
	}
	writer.start()
	defer writer.stop()

	// runPhase runs one open-loop phase, checks its verdicts at once and
	// drops them, so the benchmark's own memory stays flat across phases.
	runPhase := func(rate float64, d time.Duration, r *recorder) *phase {
		p := openLoop(st.pool, r, rate, d, inputsFor(int(rate*d.Seconds())))
		if err := checkPhase(p, refs, writer.log()); err != nil && rep.Correct {
			rep.Correct = false
			rep.note("CHECK FAILED at %.0f verdicts/s: %v", rate, err)
		}
		p.outs = nil
		return p
	}

	lap("set-up")

	// Onboarding: sequential homes through fresh gateways on the same
	// IoTSSP, every final rule checked against a reference capture pass
	// on the bank as it stood. Gateways identify through the pool itself,
	// or, in a traced run, through a spy that times each call. A traced
	// run replays the first homes of each block untraced; the difference
	// is the tracing overhead.
	refSvc := referenceService(st.bank)
	gcfg := gatewayConfig(seed)
	ob, obUntraced := &onboardResult{}, &onboardResult{}
	var ident gateway.Identifier = st.pool
	var spy *identSpy
	untracedPerBlock := 0
	if traced {
		spy = &identSpy{pool: st.pool, rec: rec}
		ident = spy
		untracedPerBlock = sh.untracedHomes / slots
	}
	perBlock := (sh.homes+slots-1)/slots + untracedPerBlock
	total := sh.homes + untracedPerBlock*slots
	frameBase := 0
	replay := func(h int, res *onboardResult, ident gateway.Identifier, r *recorder) error {
		hm, err := makeHome(seed, h)
		if err != nil {
			return err
		}
		gw, err := replayHome(hm, gcfg, ident, r, res, frameBase)
		if err != nil {
			return err
		}
		frameBase += len(hm.frames)
		if err := checkHome(hm, gcfg, gw, refSvc); err != nil && rep.Correct {
			rep.Correct = false
			rep.note("CHECK FAILED in home %d: %v", h, err)
		}
		return nil
	}
	next := -1
	homesBlock := func(last bool) error {
		writer.pause()
		defer writer.resume()
		if next < 0 {
			// Home -1 warms the gateway code paths: checked, not measured.
			if err := replay(-1, &onboardResult{}, st.pool, nil); err != nil {
				return err
			}
			next = 0
		}
		for k := 0; (k < perBlock || last) && next < total; k, next = k+1, next+1 {
			res, id, r := ob, ident, rec
			if k < untracedPerBlock {
				res, id, r = obUntraced, st.pool, nil
			}
			if err := replay(next, res, id, r); err != nil {
				return err
			}
		}
		return nil
	}

	// The run is `slots` slots, each a fixed-rate segment and a block of
	// homes, spread between the SLO probes, so a passing slow spell of
	// the shared machine lands in one slot rather than in a whole
	// measurement. A traced run repeats each segment untraced first.
	segDur := fixedDur / slots
	var segs, untracedSegs []*phase
	var tl tally
	slot := func() error {
		if traced {
			untracedSegs = append(untracedSegs, runPhase(w.rate, segDur, nil))
		}
		before := snapshotStack(st)
		st.tbank.trace(rec)
		p := runPhase(w.rate, segDur, rec)
		st.tbank.trace(nil)
		tl.add(before, snapshotStack(st))
		segs = append(segs, p)
		return homesBlock(len(segs) == slots)
	}
	if err := slot(); err != nil {
		return nil, nil, err
	}

	// SLO search, probing around twice the fixed rate.
	probeN := 0
	slo, probes := sloSearch(2*w.rate, sloStep, func(rate float64) *phase {
		if probeN++; probeN%3 == 0 && len(segs) < slots-1 && err == nil {
			err = slot()
		}
		p := runPhase(rate, probeDur, nil)
		p.latMS, p.lateMS = nil, nil
		time.Sleep(100 * time.Millisecond) // let queues empty before the next probe
		return p
	}, maxProbes)
	for err == nil && len(segs) < slots {
		err = slot()
	}
	if err != nil {
		return nil, nil, err
	}
	fixed, untraced := mergePhases(segs), mergePhases(untracedSegs)
	if err := writer.stop(); err != nil {
		return nil, nil, fmt.Errorf("churn writer: %w", err)
	}
	ops := writer.log()
	lap("measurement")

	rep.Attempted = len(fixed.latMS) + ob.onboarded + len(ops)
	rep.Failed = fixed.failed + ob.failed
	if traced {
		rep.Attempted += len(untraced.latMS) + obUntraced.onboarded
		rep.Failed += untraced.failed + obUntraced.failed
	}
	rep.note("fixed rate: %d requests in %d segments, %.0f retries, %.0f reconnects, %.0f slow-client drops; window p99s %s ms",
		len(fixed.latMS), len(segs), tl.retries, tl.reconnects, tl.drops, fmtList(fixed.p99s))
	rep.note("slo search: %d probes, highest passing %.0f verdicts/s", len(probes), slo)
	for _, p := range probes {
		rep.note("  probe %8.0f/s: n=%d failed=%d window p99=%.3f ms backlog=%d pass=%v",
			p.rate, p.n, p.failed, p.p99MS, p.backlog, p.meetsSLO())
	}
	if writer != nil {
		rep.note("churn writer: %d ops on %s", len(ops), heldOut)
	}

	// The two tail latencies move with the shared machine's slow spells
	// far more than their bounds allow, so they are per-layer metrics of
	// the traced run; the untraced run prints them with the rest.
	onb := latencies(ob.onboardMS).sorted()
	tails := func(add func(string, float64, string, int)) {
		add("verdict_p99_ms", fixed.p99MS, "ms", len(fixed.latMS))
		add("onboard_p99_ms", quantile(onb, 0.99), "ms", len(onb))
	}
	if !traced {
		lat := fixed.latMS
		frames := latencies(ob.frameUS).sorted()
		rep.add("setup_s", median(setups), "s")
		heap := len(rep.Metrics)
		rep.add("live_heap_mb", 0, "MB") // measured last, below
		rep.addN("verdict_p50_ms", quantile(lat, 0.5), "ms", len(lat))
		rep.add("slo_rate_vps", slo, "1/s")
		rep.add("bytes_per_verdict", tl.wire/float64(len(lat)), "B")
		rep.add("onboard_pkts_per_s", float64(ob.frames)/ob.replay.Seconds(), "1/s")
		rep.addN("onboard_p50_ms", quantile(onb, 0.5), "ms", len(onb))
		rep.addN("frame_p50_us", quantile(frames, 0.5), "us", len(frames))
		rep.addN("frame_p99_us", quantile(frames, 0.99), "us", len(frames))
		tails(func(name string, v float64, unit string, n int) {
			rep.note("%-34s %14.6g %-6s (n=%d, per-layer in the traced run)", name, v, unit, n)
		})

		// The live heap counts the serving system. Every other figure is
		// taken, so the benchmark drops its own inputs, references and
		// samples first; only the stack under test stays referenced.
		segs, untracedSegs, fixed, untraced, probes = nil, nil, nil, nil, nil
		ob, obUntraced, lat, frames, onb = nil, nil, nil, nil, nil
		refs, models, macs, warmMACs, st.corpus = nil, nil, nil, nil, nil
		rep.Metrics[heap].Value = liveHeapMB()
		return rep, nil, nil
	}
	tails(rep.addN)

	layerMetrics(rep, layerInputs{
		fixed: fixed, untraced: untraced, tally: tl,
		poolEnd: st.pool.Counters(), serverEnd: st.server.Counters(),
		trainS: median(trainS), ops: ops,
		ob: ob, obUntraced: obUntraced, spy: spy, spans: rec,
	})
	return rep, rec, nil
}

// liveHeapMB is the heap still in use after forced collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func fmtList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.2f", v)
	}
	return strings.Join(parts, " ")
}
