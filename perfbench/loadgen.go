package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
)

// sloLimit is the verdict latency limit on p99.
const sloLimit = 20 * time.Millisecond

// requestTimeout bounds one verdict request, retries included.
const requestTimeout = 3 * time.Second

// job is one verdict request: the device MAC, its fingerprint, and the
// index of the fingerprint's reference verdict.
type job struct {
	mac string
	fp  *fingerprint.Fingerprint
	ref int
}

// outcome is what happened to one request.
type outcome struct {
	job
	due, sent, done time.Time
	resp            iotssp.Response
	err             error
}

// latencyMS is the request's latency from when it was due; a failed
// request has infinite latency, so it misses every limit.
func (o *outcome) latencyMS() float64 {
	if o.err != nil || o.done.IsZero() {
		return math.Inf(1)
	}
	return float64(o.done.Sub(o.due)) / 1e6
}

// phase is the result of one open-loop run at a fixed offered rate.
// outs is kept only until the phase's verdicts are checked.
type phase struct {
	rate    float64
	n       int
	outs    []outcome
	latMS   []float64 // sorted: every request's latency from when it was due
	lateMS  []float64 // sorted: how late the scheduler sent each request
	p99MS   float64   // median over the phase's windows of the window p99
	p99s    []float64 // each window's p99, in due-time order
	backlog int       // requests in flight when the send window closed
	failed  int
}

// meetsSLO reports whether the phase kept p99 within the limit with no
// failures and no backlog beyond what the limit itself allows.
func (p *phase) meetsSLO() bool {
	if p.failed > 0 || p.n == 0 {
		return false
	}
	if p.p99MS > float64(sloLimit)/1e6 {
		return false
	}
	return float64(p.backlog) <= p.rate*sloLimit.Seconds()+64
}

// windowSize is how many consecutive requests (by due time) make one
// p99 window: the smallest count whose p99 has ten samples beyond it.
const windowSize = 1000

// windowP99 splits the requests into windows of windowSize and returns
// each window's p99 latency. Their median is a phase's p99, so a stall
// of the shared machine moves the windows it falls in, not the phase.
func windowP99(outs []outcome) []float64 {
	windows, per := len(outs)/windowSize, windowSize
	if windows == 0 {
		windows, per = 1, len(outs)
	}
	p99s := make([]float64, windows)
	lat := make([]float64, per)
	for w := range p99s {
		for i := range lat {
			lat[i] = outs[w*per+i].latencyMS()
		}
		sort.Float64s(lat)
		p99s[w] = quantile(lat, 0.99)
	}
	return p99s
}

// senders is how many goroutines carry one phase's requests. It is far
// above rate × latency at any passing rate, so a due request waits for
// a sender only once the service is already past its SLO; it bounds the
// goroutines an overloaded probe can pile up.
const senders = 1024

// openLoop sends requests at a fixed rate for dur from a single
// scheduler goroutine and waits for every reply. The scheduler never
// waits for a reply: due requests go to a queue served by the senders.
// next supplies request i. Requests are timed from when they were due.
func openLoop(pool *gateway.Pool, rec *recorder, rate float64, dur time.Duration, next func(i int) job) *phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	p := &phase{rate: rate, n: n, outs: make([]outcome, n), lateMS: make([]float64, n)}
	var inflight atomic.Int64
	queue := make(chan int, n) // holds every request, so sending never blocks
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &p.outs[i]
				root := rec.beginAt("loadgen.request", -1, int64(i), o.due)
				call := rec.begin("gateway.pool.identify", root, int64(i))
				ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
				o.resp, o.err = pool.Identify(ctx, o.mac, o.fp)
				cancel()
				o.done = time.Now()
				rec.end(call)
				rec.end(root)
				inflight.Add(-1)
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		p.lateMS[i] = float64(sent.Sub(due)) / 1e6
		o := &p.outs[i]
		o.job, o.due, o.sent = next(i), due, sent
		inflight.Add(1)
		queue <- i
	}
	p.backlog = int(inflight.Load())
	close(queue)
	wg.Wait()
	p.latMS = make([]float64, n)
	for i := range p.outs {
		if p.outs[i].err != nil {
			p.failed++
		}
		p.latMS[i] = p.outs[i].latencyMS()
	}
	sort.Float64s(p.latMS)
	sort.Float64s(p.lateMS)
	p.p99s = windowP99(p.outs)
	p.p99MS = median(p.p99s)
	return p
}

// mergePhases pools phases at one rate into one (nil for none).
func mergePhases(ps []*phase) *phase {
	if len(ps) == 0 {
		return nil
	}
	m := &phase{rate: ps[0].rate}
	for _, p := range ps {
		m.n += p.n
		m.failed += p.failed
		m.latMS = append(m.latMS, p.latMS...)
		m.lateMS = append(m.lateMS, p.lateMS...)
		m.p99s = append(m.p99s, p.p99s...)
		m.backlog = max(m.backlog, p.backlog)
	}
	sort.Float64s(m.latMS)
	sort.Float64s(m.lateMS)
	m.p99MS = median(m.p99s)
	return m
}

// sloSearch finds the highest offered rate that meets the SLO. It
// brackets the knee by factors of 1.25 from start, then bisects
// geometrically until the bracket is narrower than step (a ratio), and
// returns the highest passing rate with every probe it ran. A rate
// fails only if a second probe at it fails too: a stall of the shared
// machine can fail one probe far below the knee, and a bisection that
// trusted it would report that stall instead of the service's limit.
func sloSearch(start, step float64, probe func(rate float64) *phase, maxProbes int) (float64, []*phase) {
	var probes []*phase
	try := func(r float64) bool {
		for attempt := 0; attempt < 2 && len(probes) < maxProbes; attempt++ {
			p := probe(r)
			probes = append(probes, p)
			if p.meetsSLO() {
				return true
			}
		}
		return false
	}
	lo, hi := 0.0, 0.0
	r := start
	for len(probes) < maxProbes && (lo == 0 || hi == 0) {
		if try(r) {
			lo = r
			r *= 1.25
		} else {
			hi = r
			r /= 1.25
		}
	}
	for len(probes) < maxProbes && lo > 0 && hi > 0 && hi/lo > step {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}
