package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/serve"
	"repro/internal/testcert"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// TestRemoteIngestRefusalsTyped: an ingest item a remote shard refuses
// keeps its sentinel through the router, and a gateway over that cluster
// answers it 400 bad_request, as the embedded gateway does.
func TestRemoteIngestRefusalsTyped(t *testing.T) {
	pair, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	store, trs := buildStore(t, 20, equivSeed)
	stores, err := cluster.SplitStore(store, 2, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(context.Background(), startTLSShards(t, stores, pair, nil), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hub := cluster.NewRouterHub(router)
	t.Cleanup(hub.Close)
	_, remote, remoteClient := startGateway(t, Options{Backend: router, Hub: hub}, nil)
	_, local, localClient := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(1), Store: store}, Hub: newTestHub(t, store),
	}, nil)

	mid := trs[0].Verts[1]
	for _, tc := range []struct {
		name string
		u    mod.Update
		is   error
	}{
		{"one-vertex insert", mod.Update{OID: 1 << 40, Verts: []trajectory.Vertex{mid}}, mod.ErrShortInsert},
		{"non-increasing revision", mod.Update{OID: trs[0].OID, Verts: []trajectory.Vertex{mid, mid}}, mod.ErrStaleVertex},
	} {
		if _, err := router.Ingest(context.Background(), []mod.Update{tc.u}); !errors.Is(err, tc.is) {
			t.Errorf("%s through remote shards: %v, want errors.Is %v", tc.name, err, tc.is)
		}
		body := map[string]any{"updates": []serve.WireUpdate{{OID: tc.u.OID, Verts: serve.EncodeVerts(tc.u.Verts)}}}
		for _, gw := range []struct {
			name   string
			base   string
			client *http.Client
		}{{"cluster", remote, remoteClient}, {"embedded", local, localClient}} {
			status, reply := postJSON(t, gw.client, gw.base+"/v1/ingest", "", body)
			if ae := decodeAPIError(t, reply); status != http.StatusBadRequest || ae.Code != "bad_request" {
				t.Errorf("%s through the %s gateway: %d %s", tc.name, gw.name, status, reply)
			}
		}
	}
}

// TestEmptySubMODIs422: a request whose predicate matches no object but
// the query, or one on a store that holds only the query, leaves the
// envelope without distance functions. That is the request's fault, so
// the gateway answers it 422 no_candidates on /v1/query and inside a
// /v1/batch entry, embedded and over a 3-shard router on remote shards,
// and the rebuilt failure keeps envelope.ErrNoFunctions.
func TestEmptySubMODIs422(t *testing.T) {
	pair, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	store, trs := buildStore(t, 30, equivSeed)
	stores, err := cluster.SplitStore(store, 3, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(context.Background(), startTLSShards(t, stores, pair, nil), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := mod.NewUniformStore(equivR)
	if err != nil {
		t.Fatal(err)
	}
	if err := alone.Insert(trs[0]); err != nil {
		t.Fatal(err)
	}
	empty := engine.Request{Kind: engine.KindUQ31, QueryOID: trs[0].OID, Tb: equivTb, Te: equivTe,
		Where: &textidx.Predicate{All: []string{"ev"}, Not: []string{"ev"}}}
	unfiltered := empty
	unfiltered.Where = nil
	if _, err := router.Do(context.Background(), empty); !errors.Is(err, envelope.ErrNoFunctions) {
		t.Fatalf("3-shard router: %v, want errors.Is envelope.ErrNoFunctions", err)
	}
	for _, gw := range []struct {
		name    string
		backend Backend
		req     engine.Request
	}{
		{"embedded, empty predicate", EngineBackend{Eng: engine.New(1), Store: store}, empty},
		{"embedded, the query alone", EngineBackend{Eng: engine.New(1), Store: alone}, unfiltered},
		{"3-shard router, empty predicate", router, empty},
	} {
		_, base, client := startGateway(t, Options{Backend: gw.backend}, nil)
		status, reply := postJSON(t, client, base+"/v1/query", "", gw.req)
		if ae := decodeAPIError(t, reply); status != http.StatusUnprocessableEntity || ae.Code != "no_candidates" {
			t.Errorf("%s: /v1/query answered %d %s, want 422 no_candidates", gw.name, status, reply)
		}
		status, reply = postJSON(t, client, base+"/v1/batch", "", batchRequest{Requests: []engine.Request{gw.req}})
		var out batchResponse
		if err := json.Unmarshal(reply, &out); status != http.StatusOK || err != nil || len(out.Results) != 1 {
			t.Fatalf("%s: /v1/batch answered %d (%v): %s", gw.name, status, err, reply)
		}
		e := out.Results[0]
		if e.Error == nil || e.Error.Code != "no_candidates" || !errors.Is(e.Decode(gw.req.Kind).Err, envelope.ErrNoFunctions) {
			t.Errorf("%s: /v1/batch entry %s, want no_candidates keeping envelope.ErrNoFunctions", gw.name, reply)
		}
	}
}
