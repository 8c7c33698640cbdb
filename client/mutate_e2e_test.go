package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lscr"
	"lscr/api"
	"lscr/client"
	"lscr/server"
)

// liveMutableServer is liveServer exposing the engine and raw address,
// for the mutation e2e tests.
func liveMutableServer(t *testing.T, opts ...server.Option) (*client.Client, *lscr.Engine, *httptest.Server) {
	t.Helper()
	kg, err := lscr.Load(strings.NewReader(testKG))
	if err != nil {
		t.Fatal(err)
	}
	eng := lscr.NewEngine(kg, lscr.Options{})
	srv := httptest.NewServer(server.New(eng, kg, opts...))
	t.Cleanup(srv.Close)
	return client.New(srv.URL), eng, srv
}

// TestClientMutateRoundTrip: a mutation batch commits through the live
// /v1/mutate endpoint and the answer flips exactly with the edit — the
// epoch published by Mutate is the one subsequent queries see.
func TestClientMutateRoundTrip(t *testing.T) {
	c, _, _ := liveMutableServer(t)
	ctx := context.Background()

	// Y is unknown and unreachable before the batch.
	q := api.QueryRequest{Source: "C", Target: "Y", Constraint: testConstraint, Algorithm: "uis"}
	if _, err := c.Query(ctx, q); err == nil {
		t.Fatal("query to unknown vertex succeeded before mutation")
	}

	res, err := c.Mutate(ctx, []lscr.Mutation{
		{Op: "add-edge", Subject: "P", Label: "apr", Object: "Y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch == 0 || res.Added != 1 || res.NewVertices != 1 {
		t.Fatalf("mutate result %+v", res)
	}
	resp, err := c.Query(ctx, q)
	if err != nil || !resp.Reachable {
		t.Fatalf("after insert: %+v, %v", resp, err)
	}

	// Deleting the bridge makes the same query answer false; deleting it
	// again is a 400 and changes nothing.
	if _, err := c.Mutate(ctx, []lscr.Mutation{
		{Op: "delete-edge", Subject: "X", Label: "apr", Object: "P"},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Query(ctx, q)
	if err != nil || resp.Reachable {
		t.Fatalf("after delete: %+v, %v", resp, err)
	}
	_, err = c.Mutate(ctx, []lscr.Mutation{
		{Op: "delete-edge", Subject: "X", Label: "apr", Object: "P"},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("double delete: %v", err)
	}

	// Health reflects the mutated view and the advanced epoch.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Vertices != 5 || h.Epoch.Epoch == 0 {
		t.Fatalf("health after mutations: %+v", h)
	}
}

// TestClientMutateAtomicBatch: one invalid mutation rejects the whole
// batch — the valid insertions before it are not applied.
func TestClientMutateAtomicBatch(t *testing.T) {
	c, eng, _ := liveMutableServer(t)
	ctx := context.Background()
	before := eng.Epoch()

	_, err := c.Mutate(ctx, []lscr.Mutation{
		{Op: "add-edge", Subject: "C", Label: "apr", Object: "Z1"},
		{Op: "add-edge", Subject: "Z1", Label: "apr", Object: "Z2"},
		{Op: "delete-edge", Subject: "Z9", Label: "apr", Object: "C"}, // unknown vertex
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid batch: %v", err)
	}
	if got := eng.Epoch(); got.Epoch != before.Epoch || got.OverlayOps != before.OverlayOps {
		t.Fatalf("rejected batch changed state: %+v -> %+v", before, got)
	}
	if eng.KG().NumVertices() != 4 {
		t.Fatal("rejected batch interned vertices")
	}
}

// TestClientMutateMidFlightDisconnect: a connection that dies while the
// mutation body is in flight applies nothing — the server never sees a
// decodable batch, so the graph cannot be torn.
func TestClientMutateMidFlightDisconnect(t *testing.T) {
	_, eng, srv := liveMutableServer(t)
	before := eng.Epoch()
	edgesBefore := eng.KG().NumEdges()

	body := `{"mutations":[{"op":"add-edge","subject":"C","label":"apr","object":"T1"},` +
		`{"op":"add-edge","subject":"T1","label":"apr","object":"T2"}]}`
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Announce the full length but send only half the body, then slam
	// the connection shut: the server's JSON decode must fail before
	// Engine.Apply ever runs.
	half := body[:len(body)/2]
	fmt.Fprintf(conn, "POST /v1/mutate HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), half)
	conn.Close()

	// Give the handler ample time to observe the aborted read; the state
	// must still be exactly the pre-request state afterwards.
	time.Sleep(100 * time.Millisecond)
	after := eng.Epoch()
	if after.Epoch != before.Epoch || after.OverlayOps != before.OverlayOps {
		t.Fatalf("disconnected mutation changed state: %+v -> %+v", before, after)
	}
	if got := eng.KG().NumEdges(); got != edgesBefore {
		t.Fatalf("edge count changed across disconnect: %d -> %d", edgesBefore, got)
	}
	if got := eng.KG().NumVertices(); got != 4 {
		t.Fatalf("disconnected mutation interned vertices: |V| = %d", got)
	}
}

// TestClientMutateReadOnly: a ReadOnly server answers 403 and applies
// nothing.
func TestClientMutateReadOnly(t *testing.T) {
	c, eng, _ := liveMutableServer(t, server.ReadOnly())
	_, err := c.Mutate(context.Background(), []lscr.Mutation{
		{Op: "add-vertex", Subject: "nope"},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only mutate: %v", err)
	}
	if eng.KG().NumVertices() != 4 {
		t.Fatal("read-only server applied a mutation")
	}
}
