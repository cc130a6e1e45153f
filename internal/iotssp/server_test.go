package iotssp

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fingerprint"
)

// startServer serves svc with cfg on an ephemeral loopback listener and
// returns its address. Cleanup closes the server.
func startServer(t *testing.T, svc *Service, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv := NewServer(svc, cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

// requestLine marshals one request line for raw-conn tests.
func requestLine(t *testing.T, mac string, fp *fingerprint.Fingerprint) []byte {
	t.Helper()
	report, err := fingerprint.MarshalReportPacked(mac, fp)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(Request{Fingerprint: report})
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// TestServerMalformedLinesKeepConnectionAlive interleaves good and bad
// request lines on one connection: every bad line must be answered with
// an error naming its line number, and the good lines around it must
// still be served on the same connection.
func TestServerMalformedLinesKeepConnectionAlive(t *testing.T) {
	svc, ds := testService(t)
	_, addr := startServer(t, svc, ServerConfig{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var payload []byte
	payload = append(payload, requestLine(t, "02:00:00:00:00:01", ds["Aria"][0])...)         // line 1: good
	payload = append(payload, []byte("this is not json\n")...)                               // line 2: bad JSON
	payload = append(payload, requestLine(t, "02:00:00:00:00:03", ds["HueBridge"][0])...)    // line 3: good
	payload = append(payload, []byte(`{"fingerprint":{"mac":"x","packed":"gA=="}}`+"\n")...) // line 4: bad matrix
	payload = append(payload, requestLine(t, "02:00:00:00:00:05", ds["Aria"][1])...)         // line 5: good
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	byLine := make(map[uint64]Response)
	for i := 0; i < 5; i++ {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading response %d: %v", i, err)
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("decoding response %d: %v", i, err)
		}
		byLine[resp.Line] = resp
	}

	for _, line := range []uint64{2, 4} {
		resp, ok := byLine[line]
		if !ok {
			t.Fatalf("no response for bad line %d: %v", line, byLine)
		}
		if resp.Error == "" || !strings.Contains(resp.Error, fmt.Sprintf("line %d", line)) {
			t.Errorf("bad line %d error = %q, want the line number cited", line, resp.Error)
		}
		if resp.Retryable {
			t.Errorf("malformed line %d marked retryable", line)
		}
	}
	for line, wantType := range map[uint64]string{1: "Aria", 3: "HueBridge", 5: "Aria"} {
		resp, ok := byLine[line]
		if !ok {
			t.Fatalf("no response for good line %d", line)
		}
		if resp.Error != "" || resp.DeviceType != wantType {
			t.Errorf("good line %d after bad lines: %+v", line, resp)
		}
	}
}

// gatedBank holds the first IdentifyBatch until gate closes and records
// every flush's size, so a test can queue requests behind a flush in
// progress and see exactly how the dispatcher batches them.
type gatedBank struct {
	Bank
	entered chan struct{} // closed when the first IdentifyBatch starts
	gate    chan struct{} // the first IdentifyBatch proceeds once closed
	once    sync.Once

	mu    sync.Mutex
	sizes []int
}

func (g *gatedBank) IdentifyBatch(fps []*fingerprint.Fingerprint, workers int) []core.Result {
	g.mu.Lock()
	g.sizes = append(g.sizes, len(fps))
	g.mu.Unlock()
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	return g.Bank.IdentifyBatch(fps, workers)
}

// queueBehindGate serves an uncached service over a gatedBank with the
// given BatchSize. One client's request is held inside the first flush
// while n more clients, each on its own connection, send theirs; once
// all n are queued the gate opens. It returns the server's counters
// and the size of every flush after every client has its verdict.
func queueBehindGate(t *testing.T, batchSize, n int) (ServerStats, []int) {
	t.Helper()
	base, ds := testService(t)
	gb := &gatedBank{Bank: base.bank, entered: make(chan struct{}), gate: make(chan struct{})}
	srv, addr := startServer(t, NewService(gb, ServiceConfig{DB: base.db, CacheSize: -1}), ServerConfig{BatchSize: batchSize})

	var wg sync.WaitGroup
	identify := func(i int) {
		defer wg.Done()
		c := newTestClient(addr)
		defer c.Close()
		mac := fmt.Sprintf("02:00:00:00:01:%02x", i)
		resp, err := c.Identify(context.Background(), mac, ds["Aria"][i%len(ds["Aria"])])
		if err != nil {
			t.Errorf("client %d: %v", i, err)
			return
		}
		if resp.MAC != mac {
			t.Errorf("client %d: MAC echo %q", i, resp.MAC)
		}
	}
	wg.Add(1)
	go identify(0)
	select {
	case <-gb.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first flush never reached the bank")
	}
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go identify(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Counters().Requests < uint64(n+1) {
		if time.Now().After(deadline) {
			close(gb.gate)
			t.Fatalf("only %d of %d requests queued", srv.Counters().Requests, n+1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gb.gate)
	wg.Wait()

	gb.mu.Lock()
	defer gb.mu.Unlock()
	return srv.Counters(), append([]int(nil), gb.sizes...)
}

// TestServerBatchesAcrossConnections queues eight requests from eight
// connections while a flush is in progress: the dispatcher must hand
// all eight to the bank in the next flush, without any timer.
func TestServerBatchesAcrossConnections(t *testing.T) {
	const clients = 8
	st, sizes := queueBehindGate(t, 32, clients)
	if st.Requests != clients+1 || st.ConnsAccepted != clients+1 {
		t.Fatalf("requests = %d, conns = %d, want %d each", st.Requests, st.ConnsAccepted, clients+1)
	}
	if st.Batches != 2 || st.MaxBatch != clients {
		t.Errorf("batches = %d, max batch = %d, want 2 and %d (flush sizes %v)", st.Batches, st.MaxBatch, clients, sizes)
	}
	if !slices.Equal(sizes, []int{1, clients}) {
		t.Errorf("flush sizes = %v, want [1 %d]", sizes, clients)
	}
}

// TestServerBatchSizeCapsFlush queues ten requests behind a held flush
// on a BatchSize-4 server: they must drain in flushes of at most four.
func TestServerBatchSizeCapsFlush(t *testing.T) {
	st, sizes := queueBehindGate(t, 4, 10)
	if st.Requests != 11 {
		t.Fatalf("requests = %d, want 11", st.Requests)
	}
	if want := []int{1, 4, 4, 2}; !slices.Equal(sizes, want) {
		t.Errorf("flush sizes = %v, want %v", sizes, want)
	}
	if st.Batches != 4 || st.MaxBatch != 4 {
		t.Errorf("batches = %d, max batch = %d, want 4 and 4", st.Batches, st.MaxBatch)
	}
}

// TestServerBackpressureQueueFull floods a tiny-queue server with one
// pipelined burst: the server must answer the overflow with retryable
// errors instead of queueing it, and still serve what it admitted —
// with the connection left alive throughout.
func TestServerBackpressureQueueFull(t *testing.T) {
	svc, ds := testService(t)
	srv, addr := startServer(t, svc, ServerConfig{
		QueueCapacity: 2,
		BatchSize:     2,
		WriteQueue:    4096,
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const burst = 400
	var payload []byte
	for i := 0; i < burst; i++ {
		payload = append(payload, requestLine(t, fmt.Sprintf("02:00:00:00:02:%02x", i%256), ds["Aria"][i%len(ds["Aria"])])...)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReaderSize(conn, 1<<20)
	var served, refused int
	for i := 0; i < burst; i++ {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("response %d/%d: %v", i, burst, err)
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		switch {
		case resp.Error == "":
			served++
		case resp.Retryable:
			refused++
			if !strings.Contains(resp.Error, "overloaded") {
				t.Errorf("retryable error = %q", resp.Error)
			}
		default:
			t.Errorf("unexpected hard error: %q", resp.Error)
		}
	}
	if served == 0 || refused == 0 {
		t.Fatalf("served=%d refused=%d: want both under overload", served, refused)
	}
	if st := srv.Counters(); st.Overloaded != uint64(refused) {
		t.Errorf("stats.Overloaded = %d, responses said %d", st.Overloaded, refused)
	}

	// The connection is still usable after the storm.
	if _, err := conn.Write(requestLine(t, "02:00:00:00:03:01", ds["HueBridge"][0])); err != nil {
		t.Fatal(err)
	}
	deadlineScan(t, br, func(resp Response) bool { return resp.Error == "" && resp.DeviceType == "HueBridge" })
}

// deadlineScan reads responses until pred accepts one (overload errors
// from the tail of a previous storm may still be in flight).
func deadlineScan(t *testing.T, br *bufio.Reader, pred func(Response) bool) {
	t.Helper()
	for {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("scanning for response: %v", err)
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if pred(resp) {
			return
		}
	}
}

// TestServerConnectionLimit verifies the bounded accept loop: beyond
// MaxConns the server answers with a retryable refusal and closes.
func TestServerConnectionLimit(t *testing.T) {
	svc, ds := testService(t)
	srv, addr := startServer(t, svc, ServerConfig{MaxConns: 1})

	first := newTestClient(addr)
	defer first.Close()
	if _, err := first.Identify(context.Background(), "02:00:00:00:04:01", ds["Aria"][0]); err != nil {
		t.Fatal(err)
	}

	second, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(10 * time.Second))
	raw, err := bufio.NewReader(second).ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Retryable || !strings.Contains(resp.Error, "connection capacity") {
		t.Fatalf("refusal = %+v", resp)
	}
	if _, err := bufio.NewReader(second).ReadByte(); err == nil {
		t.Error("refused connection left open")
	}
	if st := srv.Counters(); st.ConnsRefused != 1 {
		t.Errorf("conns refused = %d", st.ConnsRefused)
	}

	// The admitted connection keeps working.
	if _, err := first.Identify(context.Background(), "02:00:00:00:04:02", ds["Aria"][1]); err != nil {
		t.Errorf("admitted connection broken after refusal: %v", err)
	}
}

// TestServerOutOfOrderResponsesCarryCorrelation pipelines distinct
// fingerprints on one connection and checks every response can be
// matched to its request by MAC and line, whatever the arrival order.
func TestServerOutOfOrderResponsesCarryCorrelation(t *testing.T) {
	svc, ds := testService(t)
	_, addr := startServer(t, svc, ServerConfig{BatchSize: 4})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	types := []string{"Aria", "HueBridge", "EdimaxCam", "WeMoSwitch"}
	var payload []byte
	want := make(map[uint64]string) // line -> expected MAC
	for i, typ := range types {
		mac := fmt.Sprintf("02:00:00:00:05:%02x", i)
		want[uint64(i+1)] = mac
		payload = append(payload, requestLine(t, mac, ds[typ][0])...)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for range types {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		mac, ok := want[resp.Line]
		if !ok {
			t.Fatalf("response for unknown line %d", resp.Line)
		}
		delete(want, resp.Line)
		if resp.MAC != mac {
			t.Errorf("line %d: MAC %q, want %q", resp.Line, resp.MAC, mac)
		}
	}
	if len(want) != 0 {
		t.Errorf("lines never answered: %v", want)
	}
}
