package api_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"lscr"
	"lscr/api"
	"lscr/client"
	"lscr/server"
)

// wireKG is the graph behind the server-produced shapes: a two-hop
// chain plus one edge the frozen mutation batch deletes.
const wireKG = `<a> <l> <b> .
<b> <m> <c> .
<c> <l> <a> .
`

// frozenShape checks that v encodes to exactly want and that want
// decodes back to a value equal to v.
func frozenShape[T any](t *testing.T, name string, v T, want string) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	if string(raw) != want {
		t.Errorf("%s wire shape changed:\n got: %s\nwant: %s", name, raw, want)
	}
	var back T
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatalf("%s: unmarshal: %v", name, err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Errorf("%s does not decode back to an equal value:\n got: %+v\nwant: %+v", name, back, v)
	}
}

// TestWireShapesFrozen pins the exact JSON of the /v1 replies and the
// mutation request, so a change to the Go types behind the contract
// cannot silently change a byte on the wire. The mutate and replicate
// replies come from a live server over a persistent engine.
func TestWireShapesFrozen(t *testing.T) {
	witnessed := api.FromResponse(lscr.Response{
		Reachable:          true,
		Stats:              lscr.Stats{PassedVertices: 3, SearchTreeNodes: 4, SCckCalls: 2},
		Elapsed:            17 * time.Microsecond,
		SatisfyingVertices: -1,
		Algorithm:          lscr.UIS,
		Witness: &lscr.Witness{
			Hops:        []lscr.PathHop{{From: "a", Label: "l", To: "b"}, {From: "b", Label: "m", To: "c"}},
			SatisfiedBy: []string{"b"},
		},
	})
	frozenShape(t, "QueryResponse", witnessed,
		`{"reachable":true,"elapsed_us":17,"passed_vertices":3,"search_tree_nodes":4,"satisfying_vertices":-1,"algorithm":"uis",`+
			`"witness":{"hops":[{"from":"a","label":"l","to":"b"},{"from":"b","label":"m","to":"c"}],"satisfied_by":["b"]}}`)

	answer := api.FromResponse(lscr.Response{
		Stats:              lscr.Stats{PassedVertices: 1, SearchTreeNodes: 1},
		Elapsed:            2 * time.Microsecond,
		SatisfyingVertices: 0,
		Algorithm:          lscr.INS,
	})
	frozenShape(t, "BatchResponse", api.BatchResponse{
		Results: []api.BatchItem{{Error: "lscr: unknown vertex name"}, {QueryResponse: answer}},
		Count:   2,
	}, `{"results":[{"reachable":false,"elapsed_us":0,"passed_vertices":0,"search_tree_nodes":0,"satisfying_vertices":0,"algorithm":"","error":"lscr: unknown vertex name"},`+
		`{"reachable":false,"elapsed_us":2,"passed_vertices":1,"search_tree_nodes":1,"satisfying_vertices":0,"algorithm":"ins"}],"count":2}`)

	req := api.MutateRequest{Mutations: api.FromMutations([]lscr.Mutation{
		{Op: lscr.OpAddEdge, Subject: "b", Label: "n", Object: "d"},
		{Op: lscr.OpDeleteEdge, Subject: "c", Label: "l", Object: "a"},
		{Op: lscr.OpAddVertex, Subject: "e"},
		{Op: lscr.OpAddLabel, Label: "k"},
	})}
	frozenShape(t, "MutateRequest", req,
		`{"mutations":[{"op":"add-edge","subject":"b","label":"n","object":"d"},{"op":"delete-edge","subject":"c","label":"l","object":"a"},`+
			`{"op":"add-vertex","subject":"e"},{"op":"add-label","label":"k"}]}`)

	kg, err := lscr.Load(strings.NewReader(wireKG))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lscr.Create(t.TempDir(), kg, lscr.Options{CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := httptest.NewServer(server.New(eng, eng.KG()))
	defer srv.Close()
	c := client.New(srv.URL)
	ctx := context.Background()

	// Epoch 1 is the frozen batch, epoch 2 the seal that rotates it out
	// of the log, epoch 3 a batch above the seal.
	res, err := c.Mutate(ctx, req.Mutations)
	if err != nil {
		t.Fatal(err)
	}
	frozenShape(t, "/v1/mutate reply", res,
		`{"epoch":1,"added":1,"deleted":1,"new_vertices":2,"new_labels":2,"overlay_ops":2,"compaction_started":false}`)
	if did, err := eng.Compact(ctx); err != nil || !did {
		t.Fatalf("Compact = %v, %v", did, err)
	}
	if _, err := c.Mutate(ctx, req.Mutations[:1]); err != nil {
		t.Fatal(err)
	}
	feed, err := c.Replicate(ctx, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	frozenShape(t, "ReplicateResponse", feed,
		`{"from":1,"batches":[{"epoch":2,"seal":true,"base":1},{"epoch":3,"mutations":[{"op":"add-edge","subject":"b","label":"n","object":"d"}]}],"epoch":3,"durable_epoch":3}`)
}
