package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/serve"
	"repro/internal/simtest"
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
			srv.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
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

// FuzzIngestBodyFastPath: on any bytes, serve.ParseIngestBody either
// declines or reads what encoding/json reads — the same value, and the
// same bytes when both are encoded again (which tells -0 from 0) — and
// the ingest handler's decodeIngest answers what decodeBody does, value,
// status and message, under a body cap the bytes fit and one they
// overrun. The committed corpus holds the edges: exponents, -0, 1e309, a
// 1.0 OID, escapes, case-variant and duplicate keys, null and empty
// lists, 2- and 4-element vertices, whitespace and trailing bytes.
func FuzzIngestBodyFastPath(f *testing.F) {
	f.Add([]byte(`{"updates":[{"oid":3,"verts":[[1.5,-2,5],[3,4e-3,12]]},{"oid":3,"tags":["ev"]},{"oid":4,"retire":true}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, limit := range []int64{int64(len(body)), int64(len(body) / 2)} {
			capped := func() *http.Request {
				r := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
				r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, limit)
				return r
			}
			var got, want ingestRequest
			gerr, werr := decodeIngest(capped(), &got), decodeBody(capped().Body, &want)
			gs, gc := errStatus(gerr)
			ws, wc := errStatus(werr)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || gs != ws || gc != wc || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q capped at %d: decodeIngest = %+v, %v (%d %s); decodeBody = %+v, %v (%d %s)",
					body, limit, got, gerr, gs, gc, want, werr, ws, wc)
			}
		}
		updates, ok := serve.ParseIngestBody(body)
		if !ok {
			return
		}
		var want ingestRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("the fast path read a body encoding/json refuses (%v): %q", err, body)
		}
		got := ingestRequest{Updates: updates}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the fast path read %q as\n%+v\nencoding/json as\n%+v", body, got, want)
		}
		if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
			t.Fatalf("the fast path read %q as %s, encoding/json as %s", body, g, w)
		}
	})
}

func mustJSON(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wireBatch is one ingest batch shaped like the sharded_wire benchmark
// workload's: 200 plan revisions and 40 tag flips over an N = 3 000 fleet.
func wireBatch(tb testing.TB) []mod.Update {
	w, err := simtest.NewWorld(simtest.Config{Seed: 2009, N: 3000, Held: 4, R: 0.5, Steps: 272, PerStep: 200})
	if err != nil {
		tb.Fatal(err)
	}
	ups, err := w.StepSized(200, 40, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return ups
}

// BenchmarkIngestBodyDecode: reading a 240-update POST /v1/ingest body,
// by the fast path and by the decodeBody it stands in for. B/op of
// throughput is the body's size.
func BenchmarkIngestBodyDecode(b *testing.B) {
	ups := wireBatch(b)
	wire := make([]serve.WireUpdate, len(ups))
	for i, u := range ups {
		wire[i] = serve.WireUpdate{OID: u.OID, Verts: serve.EncodeVerts(u.Verts), Tags: u.Tags}
	}
	body, err := json.Marshal(ingestRequest{Updates: wire})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if got, ok := serve.ParseIngestBody(body); !ok || len(got) != len(ups) {
				b.Fatalf("declined (%t) or read %d updates", ok, len(got))
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var ir ingestRequest
			if err := decodeBody(bytes.NewReader(body), &ir); err != nil || len(ir.Updates) != len(ups) {
				b.Fatalf("%v, %d updates", err, len(ir.Updates))
			}
		}
	})
}

// TestFloodedIngestBodyAllocs: an ingest body at the default cap made of
// '{' after its list opens answers decodeBody's 400 for the cost of
// reading it once into a buffer sized from its declared length, not for
// a list sized by its braces (72 bytes each) or io.ReadAll's growth. A
// body of spaces is declined too, and decodeBody skips its leading
// whitespace before json.Decoder buffers any of it: both floods measure
// 1.76x.
func TestFloodedIngestBodyAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		body  []byte
		bound int // allocation bound, in multiples of the body's length
	}{
		{"brace", append([]byte(`{"updates":[`), bytes.Repeat([]byte(`{`), DefaultMaxBodyBytes-12)...), 2},
		{"space", bytes.Repeat([]byte(` `), DefaultMaxBodyBytes), 2},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(tc.body))
		r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, DefaultMaxBodyBytes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var ir ingestRequest
		err := decodeIngest(r, &ir)
		runtime.ReadMemStats(&after)
		if status, code := errStatus(err); status != http.StatusBadRequest || code != "bad_request" {
			t.Fatalf("a %s flood: %v (%d %s), want 400 bad_request", tc.name, err, status, code)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("a %d-byte %s flood allocated %d bytes (%.2fx)", len(tc.body), tc.name, got, float64(got)/float64(len(tc.body)))
		if bound := uint64(tc.bound * len(tc.body)); got > bound {
			t.Fatalf("a %d-byte %s flood allocated %d bytes, want <= %d", len(tc.body), tc.name, got, bound)
		}
	}
}

// TestDeclaredLengthCappedByBodyCap: the ingest read sizes its buffer from
// the declared length only up to the server's body cap, so a request that
// declares 8 MiB to a 1 KiB-capped server and sends a few bytes costs
// about a kilobyte of buffer, not the 8 MiB it declared.
func TestDeclaredLengthCappedByBodyCap(t *testing.T) {
	store, _ := buildStore(t, 5, equivSeed)
	srv, err := New(Options{Backend: EngineBackend{Eng: engine.New(1), Store: store}, Hub: newTestHub(t, store), MaxBodyBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader([]byte(`{"updates":[]}`)))
	r.ContentLength = DefaultMaxBodyBytes
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.handler.ServeHTTP(rec, r)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("an empty batch: status %d (%s), want 400", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a 14-byte body declaring %d bytes allocated %d bytes under a 1 KiB cap", DefaultMaxBodyBytes, got)
	}
}

// firstReadAllocs is a body that sends nothing: its first Read records how
// much the process allocated since before, then ends the body.
type firstReadAllocs struct {
	before runtime.MemStats
	got    uint64
	read   bool
}

func (f *firstReadAllocs) Read([]byte) (int, error) {
	if !f.read {
		var now runtime.MemStats
		runtime.ReadMemStats(&now)
		f.got, f.read = now.TotalAlloc-f.before.TotalAlloc, true
	}
	return 0, io.EOF
}

// TestDeclaredLengthWaitsForBytes: under the default 8 MiB cap, a request
// that declares the whole cap and has sent no byte yet holds a buffer of
// kilobytes while the server waits for its first byte, not the 8 MiB it
// declared, so idle connections cannot pin memory by declaring it.
func TestDeclaredLengthWaitsForBytes(t *testing.T) {
	store, _ := buildStore(t, 5, equivSeed)
	srv, err := New(Options{Backend: EngineBackend{Eng: engine.New(1), Store: store}, Hub: newTestHub(t, store)})
	if err != nil {
		t.Fatal(err)
	}
	body := &firstReadAllocs{}
	r := httptest.NewRequest(http.MethodPost, "/v1/ingest", body)
	r.ContentLength = DefaultMaxBodyBytes
	rec := httptest.NewRecorder()
	runtime.ReadMemStats(&body.before)
	srv.handler.ServeHTTP(rec, r)
	if !body.read || rec.Code != http.StatusBadRequest {
		t.Fatalf("an empty body: read %v, status %d (%s), want a read and 400", body.read, rec.Code, rec.Body)
	}
	if body.got > 256<<10 {
		t.Fatalf("a request declaring %d bytes allocated %d bytes before its first byte", DefaultMaxBodyBytes, body.got)
	}
}
