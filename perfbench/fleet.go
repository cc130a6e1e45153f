package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fingerprint"
	"repro/internal/iotssp"
	"repro/internal/vulndb"
)

// Seed offsets keep the input families of one workload seed apart.
const (
	recurringSeedOffset = 1_000
	homeSeedOffset      = 3_000
)

// recurringPerType is how many recurring device models each type has
// in the fleet.
const recurringPerType = 2

// recurring returns the fleet's recurring device models: two setup
// captures per type, never part of the training corpus.
func recurring(seed int64) ([]*fingerprint.Fingerprint, error) {
	env := devices.DefaultEnv()
	var out []*fingerprint.Fingerprint
	for _, name := range devices.Names() {
		traces, err := devices.GenerateRuns(name, env, seed+recurringSeedOffset, recurringPerType)
		if err != nil {
			return nil, err
		}
		for _, t := range traces {
			out = append(out, t.Fingerprint())
		}
	}
	return out, nil
}

// fleetMACs returns n device MACs of the fleet.
func fleetMACs(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("02:fe:%02x:%02x:%02x:%02x", rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256))
	}
	return out
}

// referenceService answers from the given bank in-process, with no
// verdict cache, for computing expected verdicts.
func referenceService(bank iotssp.Bank) *iotssp.Service {
	return iotssp.NewService(bank, iotssp.ServiceConfig{DB: vulndb.Seeded(), Endpoints: endpoints(), CacheSize: -1})
}

// references returns the expected MAC-less verdict of every fingerprint.
func references(bank iotssp.Bank, fps []*fingerprint.Fingerprint) []iotssp.Response {
	return referenceService(bank).IdentifyBatch(make([]string, len(fps)), fps, 0)
}

// sameVerdict compares a served verdict with its reference field for
// field (the line echo aside, and the MAC against the request's).
func sameVerdict(got, want iotssp.Response, mac string) error {
	if got.MAC != mac {
		return fmt.Errorf("mac %q, want %q", got.MAC, mac)
	}
	got.MAC, got.Line = "", 0
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		return fmt.Errorf("verdict %+v, want %+v", got, want)
	}
	return nil
}

// normalize makes empty and nil slices compare equal.
func normalize(r iotssp.Response) iotssp.Response {
	for _, s := range []*[]string{&r.PermittedEndpoints, &r.Vulnerabilities, &r.UncontrolledChannels} {
		if len(*s) == 0 {
			*s = nil
		}
	}
	return r
}

// writeOp is one bank write of the churn writer. end is zero while the
// write is in progress.
type writeOp struct {
	enroll     bool
	start, end time.Time
}

// churnWriter alternately removes and re-enrols the held-out type on a
// fixed period until stopped or out of ops, always leaving it enrolled.
type churnWriter struct {
	bank   *core.Bank
	name   string
	prints []*fingerprint.Fingerprint
	period time.Duration
	maxOps int
	rec    *recorder

	// gate is held around each write; pause takes it so no write runs
	// while homes are onboarded.
	gate sync.Mutex

	mu  sync.Mutex
	ops []writeOp
	err error

	stopc, done chan struct{}
	stopOnce    sync.Once
}

// pause waits out a write in progress and holds off the next ones until
// resume. Both are no-ops without a writer.
func (w *churnWriter) pause() {
	if w != nil {
		w.gate.Lock()
	}
}

func (w *churnWriter) resume() {
	if w != nil {
		w.gate.Unlock()
	}
}

// do performs one write, logging it as in progress before it starts so
// a concurrent check never misses a version it may have produced.
func (w *churnWriter) do(enroll bool) {
	name := "core.remove"
	if enroll {
		name = "core.enroll"
	}
	w.mu.Lock()
	k := len(w.ops)
	w.ops = append(w.ops, writeOp{enroll: enroll, start: time.Now()})
	w.mu.Unlock()
	id := w.rec.begin(name, -1, int64(k))
	var err error
	if enroll {
		err = w.bank.Enroll(w.name, w.prints)
	} else {
		err = w.bank.Remove(w.name)
	}
	w.rec.end(id)
	w.mu.Lock()
	w.ops[k].end = time.Now()
	if err != nil && w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// log returns a copy of the writes so far.
func (w *churnWriter) log() []writeOp {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]writeOp{}, w.ops...)
}

// start launches the writer; stop ends it. Both are no-ops without a
// writer.
func (w *churnWriter) start() {
	if w == nil {
		return
	}
	w.stopc, w.done = make(chan struct{}), make(chan struct{})
	go w.run()
}

// stop ends the writer, waits for it and returns its first error.
func (w *churnWriter) stop() error {
	if w == nil {
		return nil
	}
	w.stopOnce.Do(func() { close(w.stopc) })
	<-w.done
	return w.err
}

// run writes until stopped, then restores the type if it is out.
func (w *churnWriter) run() {
	defer close(w.done)
	t := time.NewTicker(w.period)
	defer t.Stop()
	for k := 0; ; k++ {
		select {
		case <-w.stopc:
			if k%2 == 1 {
				w.do(true)
			}
			return
		case <-t.C:
			if k >= w.maxOps-1 && k%2 == 0 {
				<-w.stopc
				return
			}
			w.gate.Lock()
			w.do(k%2 == 1)
			w.gate.Unlock()
		}
	}
}

// churnReferences replays the writer's op sequence on a twin of the
// bank restored from its snapshot and returns the reference verdicts of
// fps at every version: refs[k] is the bank after k ops.
func churnReferences(bank *core.Bank, cfg core.Config, name string, prints, fps []*fingerprint.Fingerprint, ops int) ([][]iotssp.Response, error) {
	snap, err := bank.Snapshot()
	if err != nil {
		return nil, err
	}
	twin, err := core.RestoreBank(cfg, snap)
	if err != nil {
		return nil, err
	}
	refs := [][]iotssp.Response{references(twin, fps)}
	for k := 0; k < ops; k++ {
		if k%2 == 0 {
			err = twin.Remove(name)
		} else {
			err = twin.Enroll(name, prints)
		}
		if err != nil {
			return nil, fmt.Errorf("twin op %d: %w", k, err)
		}
		refs = append(refs, references(twin, fps))
	}
	return refs, nil
}

// liveVersions returns the bank versions (op counts) that may have
// served a request in flight from a to b: version k holds from the
// start of the op that makes it to the end of the op that replaces it.
func liveVersions(ops []writeOp, a, b time.Time) (lo, hi int) {
	lo, hi = len(ops), 0
	for k := 0; k <= len(ops); k++ {
		startsBy := k == 0 || !b.Before(ops[k-1].start)
		endsAfter := k == len(ops) || ops[k].end.IsZero() || !a.After(ops[k].end)
		if startsBy && endsAfter {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	return lo, hi
}

// checkPhase compares every served verdict with its reference. refs
// holds one reference set per bank version; ops is the churn writer's
// log (nil for a bank that never changes). Failed requests are counted
// by the phase, not checked.
func checkPhase(p *phase, refs [][]iotssp.Response, ops []writeOp) error {
	for i := range p.outs {
		o := &p.outs[i]
		if o.err != nil {
			continue
		}
		lo, hi := 0, 0
		if ops != nil {
			lo, hi = liveVersions(ops, o.sent, o.done)
		}
		var err error
		for v := lo; v <= hi && v < len(refs); v++ {
			if err = sameVerdict(o.resp, refs[v][o.ref], o.mac); err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("request %d (versions %d..%d): %w", i, lo, hi, err)
		}
	}
	return nil
}
