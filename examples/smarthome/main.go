// Smarthome: the full IoT Sentinel deployment end to end — a Security
// Gateway bridging a simulated home network, an IoT Security Service
// reached over real TCP, devices joining and being fingerprinted from
// their setup traffic, isolation levels enforced, and cross-overlay
// traffic demonstrably blocked while permitted traffic flows.
package main

import (
	"fmt"
	"log"
	"net"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/gateway"
	"repro/internal/iotssp"
	"repro/internal/ml"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/vulndb"
)

func main() {
	log.SetFlags(0)

	// --- IoT Security Service: train the classifier bank and serve it
	// over TCP, as the IoTSSP runs remotely from the gateway.
	fmt.Println("[iotssp] training classifier bank on the 27-type corpus…")
	env := devices.DefaultEnv()
	corpus, err := devices.GenerateDataset(env, 1, 10)
	if err != nil {
		log.Fatal(err)
	}
	bank, err := core.Train(core.BankConfig{Forest: ml.ForestConfig{Trees: 50}, Seed: 7}, corpus)
	if err != nil {
		log.Fatal(err)
	}
	endpoints := make(map[string][]string)
	for _, name := range devices.Names() {
		endpoints[name] = []string{devices.CloudIP(name + ".cloud.example.com").String()}
	}
	svc := iotssp.NewService(bank, iotssp.ServiceConfig{DB: vulndb.Seeded(), Endpoints: endpoints})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := iotssp.NewServer(svc, iotssp.ServerConfig{})
	go func() {
		if err := server.Serve(lis); err != nil {
			log.Fatal(err)
		}
	}()
	defer server.Close()
	fmt.Printf("[iotssp] serving on %s\n", lis.Addr())

	// --- Security Gateway bridging the home network.
	gwCfg := gateway.GatewayConfig{
		MAC:       packet.MustParseMAC("02:53:47:57:00:01"),
		IP:        packet.MustParseIP4("192.168.1.1"),
		LocalNet:  packet.MustParseIP4("192.168.1.0"),
		Filtering: true,
		PSKSeed:   11,
	}
	// The pooled TCP client satisfies the gateway's Identifier interface
	// directly: fingerprints travel to the IoTSSP over a real socket.
	client := gateway.NewPool(lis.Addr().String(), gateway.PoolConfig{Conns: 1})
	defer client.Close()
	gw := gateway.New(gwCfg, client)

	start := time.Date(2016, 3, 1, 10, 0, 0, 0, time.UTC)
	n := netsim.New(3, start)
	n.SetBridge(gw.Bridge())

	// --- Three devices join: a clean bridge, a vulnerable camera, and a
	// vulnerable smart plug.
	joining := []string{"HueBridge", "EdimaxCam", "TP-LinkPlugHS110"}
	hosts := make(map[string]*netsim.Host, len(joining))
	for i, name := range joining {
		profile, err := devices.Lookup(name)
		if err != nil {
			log.Fatal(err)
		}
		h, err := n.AddHost(name, profile.MAC, profile.IP, netsim.WiFiLink(6*time.Millisecond, 0.1))
		if err != nil {
			log.Fatal(err)
		}
		hosts[name] = h
		trace := profile.Generate(env, int64(1000+i), 0)
		for _, pkt := range trace.Packets {
			pkt := pkt
			h := h
			n.Schedule(pkt.Timestamp, func() { h.Send(pkt) })
		}
	}
	fmt.Println("\n[gateway] devices joining; observing setup traffic…")
	n.RunAll()
	gw.Tick(n.Now().Add(time.Minute)) // setup phases end
	gw.Drain()                        // wait for the async identifications

	// Events arrive in verdict-apply order, which depends on network
	// timing; print them in capture order so runs are comparable.
	events := append([]gateway.Event(nil), gw.Events...)
	sort.Slice(events, func(i, j int) bool {
		if !events[i].At.Equal(events[j].At) {
			return events[i].At.Before(events[j].At)
		}
		return events[i].MAC.String() < events[j].MAC.String()
	})
	for _, ev := range events {
		status := "identified as " + ev.DeviceType
		if !ev.Known {
			status = "UNKNOWN device-type"
		}
		psk, _ := gw.PSK().KeyFor(ev.MAC)
		fmt.Printf("[gateway] %s %s -> isolation level %s (device PSK %s…)\n",
			ev.MAC, status, ev.Level, psk[:8])
	}

	// --- Demonstrate enforcement.
	fmt.Println("\n[enforcement] probing the overlays:")
	probe := func(src, dst string, wantBlocked bool) {
		p := netsim.NewPinger(hosts[src], hosts[dst], 7)
		p.Run(3, 50*time.Millisecond, 32)
		n.RunAll()
		got := "ALLOWED"
		if len(p.Results) == 0 {
			got = "BLOCKED"
		}
		want := "ALLOWED"
		if wantBlocked {
			want = "BLOCKED"
		}
		mark := "ok"
		if got != want {
			mark = "UNEXPECTED"
		}
		fmt.Printf("  %-18s -> %-18s %s (%s, expected %s)\n", src, dst, got, mark, want)
	}
	// Vulnerable camera and plug share the untrusted overlay.
	probe("EdimaxCam", "TP-LinkPlugHS110", false)
	// The trusted HueBridge is shielded from the untrusted camera.
	probe("EdimaxCam", "HueBridge", true)
	probe("TP-LinkPlugHS110", "HueBridge", true)

	// Restricted camera may reach its permitted cloud endpoint but not an
	// arbitrary remote host.
	cloudIP := devices.CloudIP("EdimaxCam.cloud.example.com")
	cloud, err := n.AddHost("edimax-cloud", packet.MustParseMAC("02:0c:00:00:00:01"), cloudIP, netsim.WANLink(5*time.Millisecond, 0.1))
	if err != nil {
		log.Fatal(err)
	}
	stranger, err := n.AddHost("stranger", packet.MustParseMAC("02:0c:00:00:00:02"), packet.MustParseIP4("52.99.99.99"), netsim.WANLink(5*time.Millisecond, 0.1))
	if err != nil {
		log.Fatal(err)
	}
	gw.Ignore(cloud.MAC)
	gw.Ignore(stranger.MAC)

	cam := hosts["EdimaxCam"]
	pCloud := netsim.NewPinger(cam, cloud, 8)
	pCloud.Run(3, 50*time.Millisecond, 32)
	pStranger := netsim.NewPinger(cam, stranger, 9)
	pStranger.Run(3, 50*time.Millisecond, 32)
	n.RunAll()
	fmt.Printf("  %-18s -> %-18s %s (restricted: permitted endpoint)\n", "EdimaxCam", "vendor cloud", verdict(len(pCloud.Results) > 0))
	fmt.Printf("  %-18s -> %-18s %s (restricted: endpoint not permitted)\n", "EdimaxCam", "52.99.99.99", verdict(len(pStranger.Results) > 0))

	rule, _ := gw.Engine().RuleFor(cam.MAC)
	fmt.Printf("\n[enforcement] rule cache entry for the camera: level=%s permitted=%v hash=%016x\n",
		rule.Level, rule.PermittedIPs, rule.Hash())
	st := gw.Table().Stats()
	fmt.Printf("[flowtable] %d rules, %d cached microflows, %d lookups (%.0f%% cache hits)\n",
		gw.Table().Len(), gw.Table().CacheLen(), st.Lookups,
		100*float64(st.CacheHits)/float64(st.Lookups))
}

func verdict(allowed bool) string {
	if allowed {
		return "ALLOWED"
	}
	return "BLOCKED"
}
