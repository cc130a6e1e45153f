package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/devices"
	"repro/internal/enforce"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
	"repro/internal/packet"
	"repro/internal/sniff"
)

// Home schedule: the 27 devices join within joinWindow of each other,
// then send standbyBeats heartbeats each.
const (
	joinWindow  = 90 * time.Second
	standbyGap  = 12 * time.Second // after setup, past the 10 s idle gap
	standbyBeat = 6
)

// home is one replay: every frame the gateway sees, as wire bytes with
// their virtual timestamps, in time order.
type home struct {
	frames [][]byte
	ts     []time.Time
	macs   []packet.MAC
	end    time.Time // a tick this late completes every capture
}

// makeHome generates home h: each Table-II device joins at a staggered
// virtual time, runs its setup, then sends standby heartbeats.
func makeHome(seed int64, h int) (*home, error) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(h)))
	base := devices.DefaultEnv().Start.Add(time.Duration(h) * time.Hour)
	type frame struct {
		ts  time.Time
		dev int
		seq int
		pkt *packet.Packet
	}
	var all []frame
	hm := &home{}
	for d, name := range devices.Names() {
		p, err := devices.Lookup(name)
		if err != nil {
			return nil, err
		}
		hm.macs = append(hm.macs, p.MAC)
		env := devices.DefaultEnv()
		env.Start = base.Add(time.Duration(rng.Int63n(int64(joinWindow))))
		setup := p.Generate(env, seed+homeSeedOffset, h)
		env.Start = setup.Packets[len(setup.Packets)-1].Timestamp.Add(standbyGap)
		standby := p.GenerateStandby(env, seed+homeSeedOffset, h, standbyBeat)
		for i, pkt := range append(setup.Packets, standby.Packets...) {
			all = append(all, frame{ts: pkt.Timestamp, dev: d, seq: i, pkt: pkt})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].ts.Equal(all[j].ts) {
			return all[i].ts.Before(all[j].ts)
		}
		if all[i].dev != all[j].dev {
			return all[i].dev < all[j].dev
		}
		return all[i].seq < all[j].seq
	})
	for _, f := range all {
		wire, err := f.pkt.Serialize()
		if err != nil {
			return nil, fmt.Errorf("home %d: %w", h, err)
		}
		hm.frames = append(hm.frames, wire)
		hm.ts = append(hm.ts, f.ts)
	}
	hm.end = hm.ts[len(hm.ts)-1].Add(time.Minute)
	return hm, nil
}

// gatewayConfig is the home gateway: the lab network of Fig. 4 with
// filtering on.
func gatewayConfig(seed int64) gateway.Config {
	env := devices.DefaultEnv()
	return gateway.Config{
		MAC:       env.GatewayMAC,
		IP:        env.GatewayIP,
		LocalNet:  packet.IP4{192, 168, 1, 0},
		Filtering: true,
		PSKSeed:   seed,
	}
}

// identSpy is the gateway's Identifier in a traced run: it forwards to
// the pool and times each call, so onboarding identification cost is
// measured where the gateway waits for it. Untraced gateways use the
// pool directly.
type identSpy struct {
	pool *gateway.Pool
	rec  *recorder

	mu    sync.Mutex
	calls int
	fps   int
	durs  []float64 // ms per call
}

func (s *identSpy) note(n int, start time.Time) {
	d := float64(time.Since(start)) / 1e6
	s.mu.Lock()
	s.calls++
	s.fps += n
	s.durs = append(s.durs, d)
	s.mu.Unlock()
}

func (s *identSpy) Identify(ctx context.Context, mac string, fp *fingerprint.Fingerprint) (iotssp.Response, error) {
	id := s.rec.begin("gateway.ident", -1, -1)
	start := time.Now()
	resp, err := s.pool.Identify(ctx, mac, fp)
	s.note(1, start)
	s.rec.end(id)
	return resp, err
}

func (s *identSpy) IdentifyBatch(ctx context.Context, macs []string, fps []*fingerprint.Fingerprint) ([]iotssp.Response, []error) {
	id := s.rec.begin("gateway.ident", -1, -1)
	start := time.Now()
	resps, errs := s.pool.IdentifyBatch(ctx, macs, fps)
	s.note(len(macs), start)
	s.rec.end(id)
	return resps, errs
}

// onboardResult accumulates the onboarding replay.
type onboardResult struct {
	frames        int
	onboarded     int
	failed        int
	replay        time.Duration // frame loops without identification waits, summed over homes
	frameUS       []float64     // per-frame gateway work
	decodeNS      float64       // summed decode time
	onboardMS     []float64     // per device: quarantine to typed rule
	captures      int
	evictions     uint64
	rules         int
	flowRules     int
	lookups, hits uint64
}

// replayHome drives one fresh gateway through a home's frames, calling
// Tick after every frame, and records when each device's quarantine
// rule appears and when its typed rule is applied.
func replayHome(hm *home, cfg gateway.Config, ident gateway.Identifier, rec *recorder, res *onboardResult, frameBase int) (*gateway.Gateway, error) {
	gw := gateway.New(cfg, ident)
	defer gw.Close()
	bridge := gw.Bridge()
	n := len(hm.macs)
	quarantined := make([]time.Time, n)
	applied := make([]bool, n)
	index := make(map[packet.MAC]int, n)
	for d, mac := range hm.macs {
		index[mac] = d
	}
	finished, events, done, pending := 0, 0, 0, 0
	// observe updates the per-device onboarding state after a gateway
	// call returned at t.
	observe := func(t time.Time) {
		if f := gw.Monitor().Stats().Finished; f != finished {
			finished = f
			for d, mac := range hm.macs {
				if quarantined[d].IsZero() && gw.Monitor().Seen(mac) {
					quarantined[d] = t
					pending++
				}
			}
		}
		for ; events < len(gw.Events); events++ {
			ev := gw.Events[events]
			d, ok := index[ev.MAC]
			if !ok || applied[d] {
				continue
			}
			applied[d] = true
			done++
			pending--
			if ev.Err != nil {
				res.failed++
				continue
			}
			res.onboardMS = append(res.onboardMS, float64(t.Sub(quarantined[d]))/1e6)
		}
	}

	// settle waits until every quarantined device has its verdict
	// applied; each identification is bounded by the gateway's
	// IdentTimeout. Devices join seconds apart in virtual time while an
	// identification takes milliseconds, so the replay holds the next
	// frame until then instead of compressing every join of the home into
	// one burst.
	var waited time.Duration
	settle := func() {
		if pending > 0 {
			t0 := time.Now()
			gw.Drain()
			observe(time.Now())
			waited += time.Since(t0)
		}
	}

	start := time.Now()
	for i, wire := range hm.frames {
		req := int64(frameBase + i)
		root := rec.begin("onboard.frame", -1, req)
		t0 := time.Now()
		sp := rec.begin("packet.decode", root, req)
		p, err := packet.Decode(wire, hm.ts[i])
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		t1 := time.Now()
		sp = rec.begin("gateway.bridge", root, req)
		bridge(hm.ts[i], nil, p)
		rec.end(sp)
		sp = rec.begin("gateway.tick", root, req)
		gw.Tick(hm.ts[i])
		rec.end(sp)
		t2 := time.Now()
		rec.end(root)
		res.frameUS = append(res.frameUS, float64(t2.Sub(t0))/1e3)
		res.decodeNS += float64(t1.Sub(t0))
		observe(t2)
		settle()
	}
	res.replay += time.Since(start) - waited
	res.frames += len(hm.frames)

	// Let the last captures complete and wait for their verdicts.
	gw.Tick(hm.end)
	observe(time.Now())
	settle()
	if done < n {
		return nil, fmt.Errorf("home: %d of %d devices onboarded", done, n)
	}
	res.onboarded += n
	st := gw.Monitor().Stats()
	res.captures += st.Finished
	res.evictions += st.EvictedActive + st.EvictedFinished
	res.rules += gw.Engine().Len()
	res.flowRules += gw.Table().Len()
	ts := gw.Table().Stats()
	res.lookups += ts.Lookups
	res.hits += ts.CacheHits
	return gw, nil
}

// checkHome replays the home's frames and ticks through a reference
// sniff.Monitor and requires each device's final rule on the gateway to
// match the verdict for the capture the reference produces.
func checkHome(hm *home, cfg gateway.Config, gw *gateway.Gateway, ref *iotssp.Service) error {
	mon := sniff.NewMonitor(sniff.GatewayConfig())
	mon.IgnoreMACs[cfg.MAC] = true
	captures := make(map[packet.MAC]sniff.Capture)
	mon.OnSetupComplete = func(c sniff.Capture) { captures[c.MAC] = c }
	for i, wire := range hm.frames {
		p, err := packet.Decode(wire, hm.ts[i])
		if err != nil {
			return err
		}
		mon.Observe(p)
		mon.Tick(hm.ts[i])
	}
	mon.Tick(hm.end)
	for _, mac := range hm.macs {
		c, ok := captures[mac]
		if !ok {
			return fmt.Errorf("reference monitor: no capture for %s", mac)
		}
		want := expectedRule(mac, ref.Identify(mac.String(), c.Fingerprint()))
		got, ok := gw.Engine().RuleFor(mac)
		if !ok {
			return fmt.Errorf("gateway: no rule for %s", mac)
		}
		if err := sameRule(got, want); err != nil {
			return fmt.Errorf("device %s: %w", mac, err)
		}
	}
	return nil
}

// expectedRule is the enforcement rule a verdict should produce.
func expectedRule(mac packet.MAC, v iotssp.Response) enforce.Rule {
	level, err := iotssp.ParseLevel(v.Level)
	if err != nil {
		level = enforce.Strict
	}
	r := enforce.Rule{DeviceMAC: mac, DeviceType: v.DeviceType, Level: level}
	for _, ep := range v.PermittedEndpoints {
		if ip, err := packet.ParseIP4(ep); err == nil {
			r.PermittedIPs = append(r.PermittedIPs, ip)
		}
	}
	return r
}

func sameRule(got, want enforce.Rule) error {
	if got.DeviceMAC != want.DeviceMAC || got.DeviceType != want.DeviceType || got.Level != want.Level {
		return fmt.Errorf("rule %v/%q/%v, want %v/%q/%v", got.DeviceMAC, got.DeviceType, got.Level, want.DeviceMAC, want.DeviceType, want.Level)
	}
	g := append([]packet.IP4(nil), got.PermittedIPs...)
	w := append([]packet.IP4(nil), want.PermittedIPs...)
	less := func(s []packet.IP4) func(i, j int) bool {
		return func(i, j int) bool { return string(s[i][:]) < string(s[j][:]) }
	}
	sort.Slice(g, less(g))
	sort.Slice(w, less(w))
	if len(g) != len(w) {
		return fmt.Errorf("permitted IPs %v, want %v", g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("permitted IPs %v, want %v", g, w)
		}
	}
	return nil
}
