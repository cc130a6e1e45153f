package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
	"repro/internal/vulndb"
)

// The training corpus is one fixed dataset, the paper's size of 20
// setup captures per type; the workload seed varies only the traffic.
const (
	trainingRuns = 20
	corpusSeed   = 1
)

// stack is the serving system under test: the IoTSSP (bank, verdict
// cache, server) on loopback TCP and the pooled gateway client.
type stack struct {
	corpus devices.Dataset
	bank   *core.Bank
	tbank  *tracedBank // the service's bank in a traced run, else nil
	svc    *iotssp.Service
	server *iotssp.Server
	pool   *gateway.Pool
	served chan error
	train  time.Duration // core.Train's share of set-up
}

// endpoints maps every type to its permitted cloud endpoint, as the
// examples configure the service.
func endpoints() map[string][]string {
	eps := make(map[string][]string)
	for _, name := range devices.Names() {
		eps[name] = []string{devices.CloudIP(name + ".cloud.example.com").String()}
	}
	return eps
}

func bankConfig() core.Config {
	cfg := core.Default()
	cfg.Seed = corpusSeed
	cfg.Forest.Seed = corpusSeed
	return cfg
}

// buildStack generates the training corpus, trains the 27-type bank,
// assembles the service and server, dials the pool (its retry jitter
// seeded by seed) and warms cache and dictionaries by sending every
// warm-up fingerprint from every warm-up MAC. A traced stack serves the
// bank through a tracedBank; an untraced one serves it directly.
func buildStack(seed int64, wire iotssp.WireMode, warm []*fingerprint.Fingerprint, warmMACs []string, traced bool) (*stack, error) {
	s := &stack{served: make(chan error, 1)}
	corpus, err := devices.GenerateDataset(devices.DefaultEnv(), corpusSeed, trainingRuns)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	s.corpus = corpus
	t0 := time.Now()
	bank, err := core.Train(bankConfig(), corpus)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	s.train = time.Since(t0)
	s.bank = bank
	var served iotssp.Bank = bank
	if traced {
		s.tbank = &tracedBank{Bank: bank}
		served = s.tbank
	}
	s.svc = iotssp.NewService(served, iotssp.ServiceConfig{DB: vulndb.Seeded(), Endpoints: endpoints()})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.server = iotssp.NewServer(s.svc, iotssp.ServerConfig{})
	go func() { s.served <- s.server.Serve(lis) }()
	s.pool = gateway.NewPool(lis.Addr().String(), gateway.PoolConfig{
		Conns:   2,
		Timeout: 2 * time.Second,
		Seed:    seed,
		Wire:    wire,
	})
	for i, fp := range warm {
		for _, mac := range warmMACs {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, err := s.pool.Identify(ctx, mac, fp)
			cancel()
			if err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up %d: %w", i, err)
			}
		}
	}
	return s, nil
}

// close stops the pool and the server and waits for the serve loop.
func (s *stack) close() error {
	s.pool.Close()
	s.server.Close()
	if err := <-s.served; err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// tracedBank is the service's view of the bank in a traced run: it
// forwards to core.Bank and, while tracing, counts and times every
// identify call, so the time it reports includes waiting for the bank's
// lock behind a writer.
type tracedBank struct {
	*core.Bank
	rec atomic.Pointer[recorder]

	mu            sync.Mutex
	calls, fps    int
	discriminated int
	distances     int
	durs          []float64 // ms per call
}

func (t *tracedBank) Identify(fp *fingerprint.Fingerprint) core.Result {
	if t.rec.Load() == nil {
		return t.Bank.Identify(fp)
	}
	return t.IdentifyBatch([]*fingerprint.Fingerprint{fp}, 1)[0]
}

// trace starts (rec non-nil) or stops counting and timing calls. It is
// a no-op on an untraced stack's nil tracedBank.
func (t *tracedBank) trace(rec *recorder) {
	if t != nil {
		t.rec.Store(rec)
	}
}

func (t *tracedBank) IdentifyBatch(fps []*fingerprint.Fingerprint, workers int) []core.Result {
	rec := t.rec.Load()
	if rec == nil {
		return t.Bank.IdentifyBatch(fps, workers)
	}
	id := rec.begin("core.identify_batch", -1, -1)
	start := time.Now()
	res := t.Bank.IdentifyBatch(fps, workers)
	d := time.Since(start)
	rec.end(id)
	disc, dist := 0, 0
	for _, r := range res {
		if r.Stage == core.StageDiscrimination {
			disc++
			dist += t.Bank.DistanceComputations(r.Accepted)
		}
	}
	t.mu.Lock()
	t.calls++
	t.fps += len(fps)
	t.discriminated += disc
	t.distances += dist
	t.durs = append(t.durs, float64(d)/1e6)
	t.mu.Unlock()
	return res
}

// bankCounters is a snapshot of tracedBank's tallies.
type bankCounters struct {
	calls, fps, discriminated, distances int
	durs                                 []float64
	classify                             core.ClassifyStats
}

// snapshot returns the tallies so far (none on an untraced stack).
func (t *tracedBank) snapshot() bankCounters {
	if t == nil {
		return bankCounters{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return bankCounters{
		calls: t.calls, fps: t.fps, discriminated: t.discriminated, distances: t.distances,
		durs: append([]float64(nil), t.durs...), classify: t.Bank.ClassifyStats(),
	}
}

// plus returns the sum of two tallies.
func (c bankCounters) plus(o bankCounters) bankCounters {
	return bankCounters{
		calls:         c.calls + o.calls,
		fps:           c.fps + o.fps,
		discriminated: c.discriminated + o.discriminated,
		distances:     c.distances + o.distances,
		durs:          append(append([]float64(nil), c.durs...), o.durs...),
		classify: core.ClassifyStats{
			Fingerprints: c.classify.Fingerprints + o.classify.Fingerprints,
			Nanos:        c.classify.Nanos + o.classify.Nanos,
		},
	}
}

// since returns the tallies accumulated after base.
func (c bankCounters) since(base bankCounters) bankCounters {
	return bankCounters{
		calls:         c.calls - base.calls,
		fps:           c.fps - base.fps,
		discriminated: c.discriminated - base.discriminated,
		distances:     c.distances - base.distances,
		durs:          c.durs[len(base.durs):],
		classify: core.ClassifyStats{
			Fingerprints: c.classify.Fingerprints - base.classify.Fingerprints,
			Nanos:        c.classify.Nanos - base.classify.Nanos,
		},
	}
}

// setupTimes builds the stack `repeats` times and keeps the last one:
// set-up time is reported as the median of the repeats.
func setupTimes(repeats int, build func() (*stack, error)) (*stack, []float64, error) {
	var times []float64
	var kept *stack
	for i := 0; i < repeats; i++ {
		if kept != nil {
			if err := kept.close(); err != nil {
				return nil, nil, err
			}
			kept = nil
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		kept = s
	}
	sort.Float64s(times)
	return kept, times, nil
}
