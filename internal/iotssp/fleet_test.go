package iotssp

import (
	"context"
	"testing"
	"time"
)

// TestReplicaStopStartKeepsAddress: a replica revives on the same
// address it first bound, and serves again.
func TestReplicaStopStartKeepsAddress(t *testing.T) {
	svc, ds := testService(t)
	r := NewReplica(svc, ServerConfig{})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	addr := r.Addr()
	if addr == "" {
		t.Fatal("no address after Start")
	}

	client := newTestClient(addr)
	defer client.Close()
	fp := ds["Aria"][0]
	if _, err := client.Identify(context.Background(), "02:fe:00:00:00:01", fp); err != nil {
		t.Fatalf("first incarnation: %v", err)
	}

	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if r.Running() {
		t.Fatal("replica still running after Stop")
	}
	if r.Addr() != addr {
		t.Fatalf("address changed across Stop: %s -> %s", addr, r.Addr())
	}
	if err := r.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if r.Addr() != addr {
		t.Fatalf("restart rebound a different address: %s -> %s", addr, r.Addr())
	}

	// The old client connection died with the first incarnation; a
	// fresh client reaches the revived replica at the same address.
	client2 := newTestClient(addr)
	defer client2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := client2.Identify(context.Background(), "02:fe:00:00:00:02", fp); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("revived replica unreachable: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Stats accumulate across incarnations.
	if st := r.Counters(); st.Requests < 2 {
		t.Errorf("cumulative stats lost across restart: %+v", st)
	}
}

// TestFleetSharedServiceServesAllReplicas: N replicas over one Service
// share the bank and verdict cache.
func TestFleetSharedServiceServesAllReplicas(t *testing.T) {
	svc, ds := testService(t)
	fleet := NewFleet([]*Service{svc, svc, svc}, ServerConfig{})
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	addrs := fleet.Addrs()
	if len(addrs) != 3 || fleet.Size() != 3 {
		t.Fatalf("addrs = %v", addrs)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if a == "" || seen[a] {
			t.Fatalf("bad or duplicate replica address in %v", addrs)
		}
		seen[a] = true
	}

	fp := ds["HueBridge"][0]
	for i, addr := range addrs {
		client := newTestClient(addr)
		resp, err := client.Identify(context.Background(), "02:fd:00:00:00:0a", fp)
		client.Close()
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if resp.DeviceType != "HueBridge" {
			t.Errorf("replica %d identified %q", i, resp.DeviceType)
		}
	}

	// One shared cache: the first replica computed, the rest hit.
	st := svc.CacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("shared-cache counters across replicas: %+v", st)
	}
	stats := fleet.Counters()
	var reqs uint64
	for _, s := range stats {
		reqs += s.Requests
	}
	if reqs != 3 {
		t.Errorf("fleet request total = %d, want 3 (%+v)", reqs, stats)
	}
}

// TestFleetStopOneReplicaOthersServe: killing one replica leaves the
// others serving (independent failure domains).
func TestFleetStopOneReplicaOthersServe(t *testing.T) {
	svc, ds := testService(t)
	fleet := NewFleet([]*Service{svc, svc}, ServerConfig{})
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	if err := fleet.Replica(0).Stop(); err != nil {
		t.Fatal(err)
	}
	client := newTestClient(fleet.Addrs()[1])
	defer client.Close()
	if _, err := client.Identify(context.Background(), "02:fd:00:00:00:0b", ds["Aria"][0]); err != nil {
		t.Fatalf("surviving replica: %v", err)
	}
	dead := newTestClient(fleet.Addrs()[0])
	defer dead.Close()
	if _, err := dead.Identify(context.Background(), "02:fd:00:00:00:0c", ds["Aria"][0]); err == nil {
		t.Error("stopped replica answered")
	}
}
