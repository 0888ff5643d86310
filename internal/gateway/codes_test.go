package gateway

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/serve"
	"repro/internal/testcert"
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
