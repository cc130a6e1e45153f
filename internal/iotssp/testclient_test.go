package iotssp

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/lineconn"
)

// testClient is a single-connection identify client over
// internal/lineconn for this package's tests (the gateway package's
// pool cannot be imported here without an import cycle). Concurrent
// Identify calls pipeline on the one connection and correlate by line
// echo; a broken connection redials lazily on the next call.
type testClient struct {
	conn *lineconn.Conn[Response]
}

func newTestClient(addr string) *testClient {
	return &testClient{conn: lineconn.New[Response](addr, lineconn.Options[Response]{})}
}

func (c *testClient) Close() { c.conn.Close() }

// Identify submits a packed fingerprint report and returns the verdict;
// an error response comes back alongside a non-nil error.
func (c *testClient) Identify(ctx context.Context, mac string, fp *fingerprint.Fingerprint) (Response, error) {
	report, err := fingerprint.MarshalReportPacked(mac, fp)
	if err != nil {
		return Response{}, err
	}
	body, err := json.Marshal(Request{Fingerprint: report})
	if err != nil {
		return Response{}, err
	}
	resp, err := c.conn.RoundTrip(ctx, append(body, '\n'), 10*time.Second)
	if err != nil {
		return Response{}, fmt.Errorf("identify %s: %w", mac, err)
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("service error: %s", resp.Error)
	}
	return resp, nil
}
