package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/api/openapi"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/serve"
	"repro/internal/testcert"
	"repro/internal/trajectory"
)

// TestOpenAPICodeEnum: the spec's ApiError.code enum is serve's code
// table, in its order, and the Error description lists every code under
// the status the gateway answers it with.
func TestOpenAPICodeEnum(t *testing.T) {
	spec := string(openapi.Spec)
	i := strings.Index(spec, "\n    ApiError:\n")
	if i < 0 {
		t.Fatal("spec has no ApiError schema")
	}
	const key = "enum: "
	j := strings.Index(spec[i:], key)
	if j < 0 {
		t.Fatal("ApiError schema has no enum")
	}
	line := spec[i+j+len(key):]
	line = line[:strings.IndexByte(line, '\n')]
	var got []string
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("enum %q: %v", line, err)
	}
	if want := serve.Codes(); !slices.Equal(got, want) {
		t.Fatalf("spec enum %v, serve codes %v", got, want)
	}

	i = strings.Index(spec, "\n    Error:\n")
	j = strings.Index(spec[i:], "content:")
	if i < 0 || j < 0 {
		t.Fatal("spec has no Error response")
	}
	desc := strings.Join(strings.Fields(spec[i:i+j]), " ")
	desc = desc[strings.Index(desc, "400: "):]
	desc = desc[:strings.IndexByte(desc, '.')]
	listed := map[string]int{}
	for _, group := range strings.Split(desc, "; ") {
		status, names, _ := strings.Cut(group, ": ")
		n, err := strconv.Atoi(status)
		if err != nil {
			t.Fatalf("status group %q: %v", group, err)
		}
		for _, name := range strings.Split(names, ", ") {
			listed[name] = n
		}
	}
	for _, code := range serve.Codes() {
		if status, _ := errStatus(serve.Rebuild(code, "x")); listed[code] != status {
			t.Errorf("code %s: the spec lists status %d, the gateway answers %d", code, listed[code], status)
		}
	}
	if len(listed) != len(got) {
		t.Errorf("the Error description lists %d codes, the enum %d", len(listed), len(got))
	}
}

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
