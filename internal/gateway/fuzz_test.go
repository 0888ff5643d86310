package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
)

// FuzzGatewayBody feeds arbitrary bytes to POST /v1/ingest and POST
// /v1/query on a small store, in process. Neither route panics or answers
// 500, every 4xx body is a typed apiError, and a 200 ingest reply has one
// outcome per update and no plan in any vertex form.
func FuzzGatewayBody(f *testing.F) {
	for _, seed := range []string{
		`{"updates":[{"oid":9001,"verts":[[1,2,0],[3,4,10]]}]}`,
		`{"updates":[{"oid":3,"verts":[[1,2,5],[3,4,12]]},{"oid":3,"tags":["ev"]}]}`,
		`{"updates":[{"oid":2,"retire":true},{"oid":2,"retire":true}]}`,
		`{"updates":[{"oid":1,"verts":[[0,0,-5]]}]}`,
		`{"updates":[{"oid":7,"verts":[[0,0,1]]},{"oid":8,"vb":"AAAA"}]}`,
		`{"updates":[{"oid":4,"retire":true,"tags":[]}]}`,
		`{"updates":[]}`,
		`{"kind":"UQ31","query_oid":1,"tb":0,"te":60}`,
		`{"kind":"UQ13","query_oid":1,"oid":2,"tb":0,"te":60,"p":0.4,"x":0.3,"deadline_ms":5}`,
		`{"kind":"UQ33","query_oid":1,"tb":0,"te":60,"where":{"all":["ev"]}}`,
		`{"kind":"NN@","query_oid":1,"oid":3,"tb":0,"te":60,"t":30}`,
		`{"kind":"UQ41","query_oid":1,"tb":60,"te":0,"k":0}`,
		`[1,2`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		store, _ := buildStore(t, 5, equivSeed)
		srv, err := New(Options{
			Backend:        EngineBackend{Eng: engine.New(1), Store: store},
			Hub:            newTestHub(t, store),
			RequestTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, route := range []string{"/v1/ingest", "/v1/query"} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
			status, reply := rec.Code, rec.Body.Bytes()
			switch {
			case status == http.StatusOK, status == http.StatusGatewayTimeout:
			case status >= 400 && status < 500:
				var eb errorBody
				if err := json.Unmarshal(reply, &eb); err != nil || eb.Error.Code == "" || eb.Error.Message == "" {
					t.Fatalf("%s: %d body is not a typed error (%v): %s", route, status, err, reply)
				}
			default:
				t.Fatalf("%s: status %d: %s", route, status, reply)
			}
			if route != "/v1/ingest" || status != http.StatusOK {
				continue
			}
			// The handler read one JSON value off the body; so does this.
			var ir ingestRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ir); err != nil {
				t.Fatalf("ingest answered 200 to a body it cannot decode: %v", err)
			}
			var out struct {
				Applied []map[string]json.RawMessage `json:"applied"`
			}
			if err := json.Unmarshal(reply, &out); err != nil || len(out.Applied) != len(ir.Updates) {
				t.Fatalf("ingest: %d outcomes for %d updates (%v): %s", len(out.Applied), len(ir.Updates), err, reply)
			}
			for _, a := range out.Applied {
				for _, plan := range []string{"verts", "prev_verts", "vb", "pvb"} {
					if _, has := a[plan]; has {
						t.Fatalf("ingest outcome carries %q: %s", plan, reply)
					}
				}
			}
		}
	})
}
