package main

import (
	"sort"

	"repro/internal/gateway"
	"repro/internal/iotssp"
)

// wireBytes is the steady-state verdict traffic between two pool
// snapshots: bytes both ways, handshakes and pushes carved out.
func wireBytes(before, after gateway.PoolStats) float64 {
	b, a := before.Transport, after.Transport
	out := (a.BytesWritten - a.HandshakeBytesWritten) - (b.BytesWritten - b.HandshakeBytesWritten)
	in := (a.BytesRead - a.HandshakeBytesRead - a.PushBytesRead) - (b.BytesRead - b.HandshakeBytesRead - b.PushBytesRead)
	return float64(out + in)
}

// stackSnap is the serving stack's counters at one instant.
type stackSnap struct {
	pool   gateway.PoolStats
	server iotssp.ServerStats
	bank   bankCounters
}

func snapshotStack(st *stack) stackSnap {
	return stackSnap{pool: st.pool.Counters(), server: st.server.Counters(), bank: st.tbank.snapshot()}
}

// tally sums what the fixed-rate segments moved in the pool, the server
// and the bank.
type tally struct {
	wire, written, read                             float64
	dictHits, dictMisses                            float64
	retries, reconnects, drops                      float64
	batches, batched                                float64
	hits, lookups, misses, evictions, invalidations float64
	bank                                            bankCounters
}

// add folds in the counters that moved from a to b.
func (t *tally) add(a, b stackSnap) {
	pa, pb := a.pool.Transport, b.pool.Transport
	t.wire += wireBytes(a.pool, b.pool)
	t.written += float64(pb.BytesWritten - pa.BytesWritten)
	t.read += float64(pb.BytesRead - pa.BytesRead)
	t.dictHits += float64(pb.DictHits - pa.DictHits)
	t.dictMisses += float64(pb.DictMisses - pa.DictMisses)
	t.retries += float64(b.pool.Retries - a.pool.Retries)
	t.reconnects += float64(pb.Reconnects - pa.Reconnects)
	sa, sb := a.server, b.server
	t.drops += float64(sb.SlowClientDrops - sa.SlowClientDrops)
	t.batches += float64(sb.Batches - sa.Batches)
	t.batched += float64(sb.BatchedRequests - sa.BatchedRequests)
	ca, cb := sa.Cache, sb.Cache
	t.hits += float64((cb.Hits + cb.Shared) - (ca.Hits + ca.Shared))
	t.lookups += float64((cb.Hits + cb.Shared + cb.Misses) - (ca.Hits + ca.Shared + ca.Misses))
	t.misses += float64(cb.Misses - ca.Misses)
	t.evictions += float64(cb.Evictions - ca.Evictions)
	t.invalidations += float64(cb.Invalidations - ca.Invalidations)
	t.bank = t.bank.plus(b.bank.since(a.bank))
}

// layerInputs is everything the traced run measured.
type layerInputs struct {
	fixed, untraced *phase
	tally           tally
	poolEnd         gateway.PoolStats
	serverEnd       iotssp.ServerStats
	trainS          float64
	ops             []writeOp
	ob, obUntraced  *onboardResult
	spy             *identSpy
	spans           *recorder
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics reports the per-layer metrics. Verdict-path layers are
// scoped to the traced fixed-rate segments, the gateway datapath layers
// to the traced homes, and reconnect, retry and refusal counts to the
// whole run (the SLO probes are where they happen).
func layerMetrics(rep *report, in layerInputs) {
	fixed := in.fixed
	verdicts := float64(len(fixed.latMS))
	rep.addN("loadgen.late_p99_ms", quantile(fixed.lateMS, 0.99), "ms", len(fixed.lateMS))

	t := in.tally
	rep.add("lineconn.bytes_written", t.written, "B")
	rep.add("lineconn.bytes_read", t.read, "B")
	rep.add("lineconn.reconnects", float64(in.poolEnd.Transport.Reconnects), "count")
	rep.add("fingerprint.dict_hit_ratio", ratio(t.dictHits, t.dictHits+t.dictMisses), "ratio")

	rep.add("gateway.pool.retries", float64(in.poolEnd.Retries), "count")
	rep.add("iotssp.server.overloaded", float64(in.serverEnd.Overloaded), "count")

	rep.add("iotssp.server.batches", t.batches, "count")
	rep.add("iotssp.server.mean_batch", ratio(t.batched, t.batches), "count")
	rep.add("iotssp.cache.hit_ratio", ratio(t.hits, t.lookups), "ratio")
	rep.add("iotssp.cache.misses", t.misses, "count")
	rep.add("iotssp.cache.evictions", t.evictions, "count")
	rep.add("iotssp.cache.invalidations", t.invalidations, "count")

	bk := t.bank
	durs := latencies(bk.durs).sorted()
	busy := 0.0
	for _, d := range durs {
		busy += d
	}
	rep.add("core.identify.calls", float64(bk.calls), "count")
	rep.add("core.identify.fps", float64(bk.fps), "count")
	rep.add("core.identify.busy_ms", busy, "ms")
	rep.addN("core.identify.p99_ms", quantile(durs, 0.99), "ms", len(durs))
	rep.add("core.classify.ns_per_fp", ratio(float64(bk.classify.Nanos), float64(bk.classify.Fingerprints)), "ns")
	rep.add("core.discriminate_ratio", ratio(float64(bk.discriminated), float64(bk.fps)), "ratio")
	rep.add("editdist.distances_per_verdict", ratio(float64(bk.distances), verdicts), "count")

	var enrolMS, removeMS []float64
	for _, op := range in.ops {
		d := float64(op.end.Sub(op.start)) / 1e6
		if op.enroll {
			enrolMS = append(enrolMS, d)
		} else {
			removeMS = append(removeMS, d)
		}
	}
	sort.Float64s(enrolMS)
	sort.Float64s(removeMS)
	enrolBusy := 0.0
	for _, d := range enrolMS {
		enrolBusy += d
	}
	rep.add("core.enroll.busy_ms", enrolBusy, "ms")
	rep.addN("core.enroll.p99_ms", quantile(enrolMS, 0.99), "ms", len(enrolMS))
	rep.addN("core.remove.p99_ms", quantile(removeMS, 0.99), "ms", len(removeMS))
	rep.add("core.train_s", in.trainS, "s")

	ob := in.ob
	spans := in.spans.summarize()
	rep.add("packet.decode.ns_per_frame", ratio(ob.decodeNS, float64(ob.frames)), "ns")
	for _, name := range []string{"gateway.bridge", "gateway.tick"} {
		s := spans[name]
		if s == nil {
			s = &spanStats{}
		}
		rep.add(name+".busy_ms", float64(s.total)/1e6, "ms")
		rep.addN(name+".p99_us", float64(s.p99())/1e3, "us", s.count)
	}
	spy := in.spy
	spy.mu.Lock()
	identDurs := latencies(spy.durs).sorted()
	rep.add("gateway.ident.calls", float64(spy.calls), "count")
	rep.add("gateway.ident.mean_batch", ratio(float64(spy.fps), float64(spy.calls)), "count")
	spy.mu.Unlock()
	rep.addN("gateway.ident.p99_ms", quantile(identDurs, 0.99), "ms", len(identDurs))
	rep.add("sniff.captures", float64(ob.captures), "count")
	rep.add("sniff.evictions", float64(ob.evictions), "count")
	rep.add("enforce.rules", float64(ob.rules), "count")
	rep.add("flowtable.rules", float64(ob.flowRules), "count")
	rep.add("flowtable.cache_hit_ratio", ratio(float64(ob.hits), float64(ob.lookups)), "ratio")

	// Tracing overhead: the traced phase and homes against their
	// untraced twins in this run.
	tracedP50 := quantile(fixed.latMS, 0.5)
	plainP50 := quantile(in.untraced.latMS, 0.5)
	rep.add("trace.overhead_pct", 100*ratio(tracedP50-plainP50, plainP50), "%")
	tf := quantile(latencies(ob.frameUS).sorted(), 0.5)
	uf := quantile(latencies(in.obUntraced.frameUS).sorted(), 0.5)
	rep.add("trace.frame_overhead_pct", 100*ratio(tf-uf, uf), "%")
	frameSelf := 0.0
	if s := spans["onboard.frame"]; s != nil {
		frameSelf = ratio(float64(s.self), float64(s.count))
	}
	rep.add("trace.frame_self_ns", frameSelf, "ns")
	rep.add("trace.spans", float64(len(in.spans.spans)), "count")
}
