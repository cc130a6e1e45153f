package gateway

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iotssp"
)

// TestPoolWireDictVerdictsBitEqual: the gateway pool's v4 dictionary
// wire (with and without framed flate) yields responses bit-equal to
// the plain wire on a recurring fleet workload, with the dictionary
// carrying the repeats.
func TestPoolWireDictVerdictsBitEqual(t *testing.T) {
	names := []string{"Aria", "HueBridge", "EdimaxCam", "WeMoSwitch"}
	svc := trainedService(t, names...)
	addr := startTestServer(t, svc)

	probes := make(map[string]*devicesProbe)
	for _, name := range names {
		probes[name] = probeFor(t, name)
	}

	plain := NewPool(addr, PoolConfig{Conns: 2, Seed: 41})
	defer plain.Close()
	const rounds = 6
	for _, wire := range []iotssp.WireMode{iotssp.WireDict, iotssp.WireDictFlate} {
		t.Run(wire.String(), func(t *testing.T) {
			pool := NewPool(addr, PoolConfig{Conns: 2, Seed: 43, Wire: wire})
			defer pool.Close()
			for round := 0; round < rounds; round++ {
				for name, probe := range probes {
					mac := fmt.Sprintf("02:77:%02x:00:00:%02x", len(name), round)
					got, err := pool.Identify(context.Background(), mac, probe.fp)
					if err != nil {
						t.Fatalf("dict identify %s: %v", name, err)
					}
					want, err := plain.Identify(context.Background(), mac, probe.fp)
					if err != nil {
						t.Fatalf("plain identify %s: %v", name, err)
					}
					// The correlation line is per-connection bookkeeping, not
					// verdict content (the dict hello consumes a line).
					got.Line, want.Line = 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s round %d: dict response %+v, want %+v", name, round, got, want)
					}
				}
			}
			st := pool.Counters().Transport
			if st.DictHits == 0 {
				t.Fatalf("pool dictionary never engaged: %+v", st)
			}
			pst := plain.Counters().Transport
			dictB := st.BytesWritten - st.HandshakeBytesWritten
			plainB := pst.BytesWritten - pst.HandshakeBytesWritten
			if dictB*2 >= plainB {
				t.Errorf("dict pool wrote %d steady bytes vs plain %d, want < half", dictB, plainB)
			}
		})
	}
}

// TestPoolHelloVersionMismatchFailsDial: a hello reply whose "v" is
// not iotssp.ProtocolVersion fails the dial, so no identify request
// ever reaches the peer; the same scripted peer announcing
// ProtocolVersion serves normally.
func TestPoolHelloVersionMismatchFailsDial(t *testing.T) {
	probe := probeFor(t, "Aria")
	scripted := func(v int) (string, *atomic.Int64) {
		var identifies atomic.Int64
		addr := fakeService(t, func(conn net.Conn, count int, req iotssp.Request) bool {
			if req.Op == iotssp.OpHello {
				respondJSON(t, conn, iotssp.Response{Line: uint64(count), Mode: iotssp.ModeVerdict, V: v, Dict: req.Dict})
				return true
			}
			identifies.Add(1)
			respondJSON(t, conn, iotssp.Response{MAC: req.Fingerprint.MAC, Line: uint64(count), Known: true, DeviceType: "Aria", Stage: "classification", Level: "trusted"})
			return true
		})
		return addr, &identifies
	}
	cfg := PoolConfig{Conns: 1, Seed: 47, MaxRetries: 1, RetryBackoff: time.Millisecond, Wire: iotssp.WireDict}

	for _, v := range []int{iotssp.ProtocolVersion - 1, iotssp.ProtocolVersion + 1} {
		addr, identifies := scripted(v)
		pool := NewPool(addr, cfg)
		_, err := pool.Identify(context.Background(), "02:77:aa:00:00:01", probe.fp)
		if err == nil || !strings.Contains(err.Error(), "protocol v") {
			t.Errorf("v%d service: identify error %v, want a protocol version mismatch", v, err)
		}
		if n := identifies.Load(); n != 0 {
			t.Errorf("v%d service: %d identify requests reached the peer past a failed hello", v, n)
		}
		if pool.Healthy() {
			t.Errorf("v%d service: pool still healthy after every dial failed", v)
		}
		pool.Close()
	}

	addr, identifies := scripted(iotssp.ProtocolVersion)
	pool := NewPool(addr, cfg)
	defer pool.Close()
	if resp, err := pool.Identify(context.Background(), "02:77:aa:00:00:02", probe.fp); err != nil || resp.DeviceType != "Aria" {
		t.Fatalf("v%d service: %+v, %v", iotssp.ProtocolVersion, resp, err)
	}
	if identifies.Load() != 1 {
		t.Errorf("identify requests served = %d, want 1", identifies.Load())
	}
}
