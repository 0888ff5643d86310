package gateway

// The HTTP equivalence gate and transport-behavior tests: every Request
// kind through POST /v1/query and /v1/batch must answer byte-identically
// (modulo wall-clock fields) to the same backend driven directly, typed
// failures must map onto their status codes, auth must gate every /v1
// route, and Shutdown must drain.

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/api/openapi"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/serve"
	"repro/internal/testcert"
	"repro/internal/textidx"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

const (
	equivSeed = 2009
	equivR    = 0.5
	equivTb   = 0.0
	equivTe   = 30.0
)

func buildStore(t testing.TB, n int, seed int64) (*mod.Store, []*trajectory.Trajectory) {
	t.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(seed), n)
	if err != nil {
		t.Fatal(err)
	}
	store, err := mod.NewUniformStore(equivR)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	// Deterministic tag assignment (by OID, so equivRequests can pick
	// matching/non-matching targets): tags never change an unfiltered
	// answer, and the predicate rows of the equivalence suite need a
	// tagged population.
	for _, tr := range trs {
		var tags []string
		if tr.OID%2 == 0 {
			tags = append(tags, "available")
		}
		if tr.OID%3 == 0 {
			tags = append(tags, "ev")
		}
		if tags != nil {
			if err := store.SetTags(tr.OID, tags); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store, trs
}

// equivRequests covers every Request kind plus the typed error paths
// (unknown target, unknown query trajectory) — the same gate the
// cluster layer holds itself to.
func equivRequests(trs []*trajectory.Trajectory) []engine.Request {
	q := trs[0].OID
	near := trs[1].OID
	far := trs[len(trs)-1].OID
	return []engine.Request{
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near},
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: far},
		{Kind: engine.KindUQ12, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near},
		{Kind: engine.KindUQ13, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, X: 0.25},
		{Kind: engine.KindUQ21, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, K: 2},
		{Kind: engine.KindUQ22, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, K: 3},
		{Kind: engine.KindUQ23, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, K: 2, X: 0.5},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindUQ32, QueryOID: q, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindUQ33, QueryOID: q, Tb: equivTb, Te: equivTe, X: 0.25},
		{Kind: engine.KindUQ41, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2},
		{Kind: engine.KindUQ42, QueryOID: q, Tb: equivTb, Te: equivTe, K: 3},
		{Kind: engine.KindUQ43, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2, X: 0.5},
		{Kind: engine.KindNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, T: 15},
		{Kind: engine.KindRankAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, T: 15, K: 2},
		{Kind: engine.KindAllNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, T: 15},
		{Kind: engine.KindAllRankAt, QueryOID: q, Tb: equivTb, Te: equivTe, T: 15, K: 2},
		{Kind: engine.KindUQ13, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, P: 0.2, X: 0.3},
		{Kind: engine.KindNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: near, T: 15, P: 1},
		{Kind: engine.KindAllPairs, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindReverse, Tb: equivTb, Te: equivTe, OID: near},
		{Kind: engine.KindUQ31, QueryOID: trs[(len(trs)-1)/2].OID, Tb: equivTb, Te: equivTe},
		// Error paths: unknown target, unknown query trajectory, bad kind.
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: 987654321},
		{Kind: engine.KindUQ31, QueryOID: 987654321, Tb: equivTb, Te: equivTe},
		{Kind: engine.KindReverse, Tb: equivTb, Te: equivTe, OID: 987654321},
		{Kind: "NOPE", Tb: equivTb, Te: equivTe},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: 10, Te: 10},
	}
}

// predicateRequests is the spatio-textual matrix the equivalence gates
// append to equivRequests: the kinds under tag predicates, with both
// matching and non-matching targets (buildStore tags oid%2==0
// "available", oid%3==0 "ev"), plus the predicate error paths.
func predicateRequests(trs []*trajectory.Trajectory) []engine.Request {
	q := trs[0].OID
	pick := func(even bool) int64 {
		for _, tr := range trs[1:] {
			if (tr.OID%2 == 0) == even {
				return tr.OID
			}
		}
		return -1
	}
	tagged, untagged := pick(true), pick(false)
	avail := &textidx.Predicate{All: []string{"available"}}
	anyOf := &textidx.Predicate{Any: []string{"available", "ev"}}
	notEV := &textidx.Predicate{All: []string{"available"}, Not: []string{"ev"}}
	return []engine.Request{
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: tagged, Where: avail},
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: untagged, Where: avail},
		{Kind: engine.KindUQ21, QueryOID: q, Tb: equivTb, Te: equivTe, OID: tagged, K: 2, Where: avail},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, Where: avail},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, Where: anyOf},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, Where: notEV},
		{Kind: engine.KindUQ32, QueryOID: q, Tb: equivTb, Te: equivTe, Where: avail},
		{Kind: engine.KindUQ33, QueryOID: q, Tb: equivTb, Te: equivTe, X: 0.25, Where: avail},
		{Kind: engine.KindUQ41, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2, Where: avail},
		{Kind: engine.KindUQ43, QueryOID: q, Tb: equivTb, Te: equivTe, K: 2, X: 0.5, Where: anyOf},
		{Kind: engine.KindNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: tagged, T: 15, Where: avail},
		{Kind: engine.KindRankAt, QueryOID: q, Tb: equivTb, Te: equivTe, OID: tagged, T: 15, K: 2, Where: avail},
		{Kind: engine.KindAllNNAt, QueryOID: q, Tb: equivTb, Te: equivTe, T: 15, Where: avail},
		{Kind: engine.KindAllRankAt, QueryOID: q, Tb: equivTb, Te: equivTe, T: 15, K: 2, Where: anyOf},
		{Kind: engine.KindUQ13, QueryOID: q, Tb: equivTb, Te: equivTe, OID: tagged, P: 0.2, X: 0.3, Where: avail},
		{Kind: engine.KindUQ33, QueryOID: q, Tb: equivTb, Te: equivTe, P: 0.2, X: 0.3, Where: avail},
		{Kind: engine.KindAllPairs, Tb: equivTb, Te: equivTe, Where: avail},
		{Kind: engine.KindReverse, Tb: equivTb, Te: equivTe, OID: tagged, Where: avail},
		{Kind: engine.KindReverse, Tb: equivTb, Te: equivTe, OID: untagged, Where: avail},
		// Predicate error paths: unknown filtered target; empty predicate.
		{Kind: engine.KindUQ11, QueryOID: q, Tb: equivTb, Te: equivTe, OID: 987654321, Where: avail},
		{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, Where: &textidx.Predicate{}},
	}
}

// startGateway serves opts on a loopback listener (TLS when pair is
// non-nil) and returns the base URL plus a matching client.
func startGateway(t testing.TB, opts Options, pair *testcert.Pair) (*Server, string, *http.Client) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	scheme := "http"
	client := &http.Client{}
	if pair != nil {
		l = tls.NewListener(l, pair.ServerConfig())
		scheme = "https"
		client = &http.Client{Transport: &http.Transport{TLSClientConfig: pair.ClientConfig()}}
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
		client.CloseIdleConnections()
	})
	return srv, fmt.Sprintf("%s://%s", scheme, l.Addr()), client
}

// postJSON posts body (pre-marshaled or any) and returns status + body.
func postJSON(t testing.TB, client *http.Client, url, token string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// normWalls zeroes every wall-clock field (the only nondeterminism in a
// Result) so the rest of the payload can be compared byte-for-byte.
func normWalls(ex *engine.Explain) {
	ex.Wall = 0
	ex.RefineWall = 0
	for i := range ex.ShardExplains {
		normWalls(&ex.ShardExplains[i])
	}
}

// canonical renders a Result as wall-normalized JSON.
func canonical(t testing.TB, res engine.Result) string {
	t.Helper()
	res.Explain.ShardExplains = append([]engine.Explain(nil), res.Explain.ShardExplains...)
	normWalls(&res.Explain)
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// decodeCanonical parses an HTTP result body into the same canonical
// form.
func decodeCanonical(t testing.TB, body []byte) string {
	t.Helper()
	var res engine.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("unmarshal result %q: %v", body, err)
	}
	return canonical(t, res)
}

func decodeAPIError(t testing.TB, body []byte) apiError {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("unmarshal error body %q: %v", body, err)
	}
	return eb.Error
}

// checkHTTPAnswers drives reqs through /v1/query one at a time and
// compares each against the oracle results (same backend construction,
// same order, so memo evolution matches).
func checkHTTPAnswers(t *testing.T, client *http.Client, base, token string,
	reqs []engine.Request, want []engine.Result) {
	t.Helper()
	for i, req := range reqs {
		status, body := postJSON(t, client, base+"/v1/query", token, queryRequest{Request: req})
		tag := fmt.Sprintf("req[%d] %s", i, req.Kind)
		if want[i].Err != nil {
			wantStatus, wantCode := errStatus(want[i].Err)
			if status != wantStatus {
				t.Fatalf("%s: status %d, want %d (body %s)", tag, status, wantStatus, body)
			}
			if ae := decodeAPIError(t, body); ae.Code != wantCode {
				t.Fatalf("%s: code %q, want %q", tag, ae.Code, wantCode)
			}
			continue
		}
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (body %s)", tag, status, body)
		}
		if got, w := decodeCanonical(t, body), canonical(t, want[i]); got != w {
			t.Fatalf("%s: HTTP answer diverged\n got: %s\nwant: %s", tag, got, w)
		}
	}
}

// oracleAnswers evaluates reqs one at a time on a fresh engine — the
// per-request twin of the gateway's /v1/query path.
func oracleAnswers(store *mod.Store, reqs []engine.Request) []engine.Result {
	eng := engine.New(0)
	out := make([]engine.Result, len(reqs))
	for i, req := range reqs {
		out[i], _ = eng.Do(context.Background(), store, req)
	}
	return out
}

// TestQueryEquivalenceLocal: the full request suite over HTTP against a
// local engine backend answers byte-identically (modulo walls) to the
// identical engine driven directly, and /v1/batch matches DoBatch.
func TestQueryEquivalenceLocal(t *testing.T) {
	store, trs := buildStore(t, 200, equivSeed)
	reqs := append(equivRequests(trs), predicateRequests(trs)...)
	want := oracleAnswers(store, reqs)

	_, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
	}, nil)
	checkHTTPAnswers(t, client, base, "", reqs, want)
}

func TestBatchEquivalenceLocal(t *testing.T) {
	store, trs := buildStore(t, 200, equivSeed)
	reqs := append(equivRequests(trs), predicateRequests(trs)...)
	wantBatch, err := engine.New(0).DoBatch(context.Background(), store, reqs)
	if err != nil {
		t.Fatal(err)
	}

	_, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
	}, nil)
	status, body := postJSON(t, client, base+"/v1/batch", "", batchRequest{Requests: reqs})
	if status != http.StatusOK {
		t.Fatalf("batch status %d (body %s)", status, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(br.Results), len(reqs))
	}
	for i, entry := range br.Results {
		tag := fmt.Sprintf("batch[%d] %s", i, reqs[i].Kind)
		if wantBatch[i].Err != nil {
			if entry.OK || entry.Error == nil {
				t.Fatalf("%s: ok=%v, want typed error", tag, entry.OK)
			}
			if _, wantCode := errStatus(wantBatch[i].Err); entry.Error.Code != wantCode {
				t.Fatalf("%s: code %q, want %q", tag, entry.Error.Code, wantCode)
			}
			continue
		}
		if !entry.OK || entry.Result == nil {
			t.Fatalf("%s: not ok: %+v", tag, entry.Error)
		}
		if got, w := canonical(t, *entry.Result), canonical(t, wantBatch[i]); got != w {
			t.Fatalf("%s: batch answer diverged\n got: %s\nwant: %s", tag, got, w)
		}
	}
}

// TestAuthGatesV1Routes: with a token configured, every /v1 route
// answers 401 (missing and wrong token) while the operational routes
// stay open; the right token unlocks the API. All over TLS.
func TestAuthGatesV1Routes(t *testing.T) {
	pair, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	store, trs := buildStore(t, 20, equivSeed)
	hub := newTestHub(t, store)
	_, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Hub:     hub,
		Token:   "gw-secret",
		Metrics: NewMetrics(nil),
	}, &pair)

	okReq := queryRequest{Request: engine.Request{
		Kind: engine.KindUQ31, QueryOID: trs[0].OID, Tb: equivTb, Te: equivTe,
	}}
	for _, token := range []string{"", "wrong"} {
		for _, route := range []string{"/v1/query", "/v1/batch", "/v1/ingest"} {
			status, body := postJSON(t, client, base+route, token, okReq)
			if status != http.StatusUnauthorized {
				t.Fatalf("token %q %s: status %d, want 401", token, route, status)
			}
			if ae := decodeAPIError(t, body); ae.Code != "unauthorized" {
				t.Fatalf("token %q %s: code %q", token, route, ae.Code)
			}
		}
		// The SSE route is gated before any stream starts.
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/subscribe?kind=UQ31", nil)
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("token %q subscribe: status %d, want 401", token, resp.StatusCode)
		}
	}

	// Operational routes stay open.
	for _, route := range []string{"/healthz", "/readyz", "/metrics", "/openapi.yaml"} {
		resp, err := client.Get(base + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", route, resp.StatusCode)
		}
	}

	// The right token unlocks the API.
	status, body := postJSON(t, client, base+"/v1/query", "gw-secret", okReq)
	if status != http.StatusOK {
		t.Fatalf("authed query: status %d (body %s)", status, body)
	}
}

// TestDeadlineMaps504: a deadline the evaluation cannot meet surfaces as
// 504 deadline_exceeded — the HTTP twin of the wire-identity regression.
func TestDeadlineMaps504(t *testing.T) {
	store, trs := buildStore(t, 400, equivSeed)
	_, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
	}, nil)

	// Batch of distinct (query, window) pairs: each pays a fresh O(N)
	// preprocessing, far beyond 1 ms at N=400.
	var reqs []engine.Request
	for i := 0; i < 64; i++ {
		reqs = append(reqs, engine.Request{
			Kind: engine.KindUQ31, QueryOID: trs[i].OID, Tb: 0, Te: 30 + float64(i)/100,
		})
	}
	status, body := postJSON(t, client, base+"/v1/batch", "",
		batchRequest{Requests: reqs, DeadlineMS: 1})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline batch: status %d, want 504 (body %.200s)", status, body)
	}
	if ae := decodeAPIError(t, body); ae.Code != "deadline_exceeded" {
		t.Fatalf("deadline batch: code %q, want deadline_exceeded", ae.Code)
	}
}

// TestProbabilityDeadlineMaps504: a deadline cuts a probability-bound
// query inside its Eq. 5 loop, so a UQ13 p=0.4 that runs ~0.7 s uncut at
// N = 60 answers 504 deadline_exceeded near its 50 ms deadline.
func TestProbabilityDeadlineMaps504(t *testing.T) {
	store, trs := buildStore(t, 60, 7)
	eng := engine.New(0)
	_, base, client := startGateway(t, Options{Backend: EngineBackend{Eng: eng, Store: store}}, nil)
	q := trs[0].OID
	members, err := eng.Do(context.Background(), store, engine.Request{Kind: engine.KindUQ31, QueryOID: q, Tb: 17, Te: 27})
	if err != nil || len(members.OIDs) < 2 {
		t.Fatalf("UQ31 members %v, %v", members.OIDs, err)
	}
	target := members.OIDs[0]
	if target == q {
		target = members.OIDs[1]
	}
	start := time.Now()
	status, body := postJSON(t, client, base+"/v1/query", "", queryRequest{
		Request:    engine.Request{Kind: engine.KindUQ13, QueryOID: q, Tb: 17, Te: 27, OID: target, P: 0.4, X: 0.3},
		DeadlineMS: 50,
	})
	if ae := decodeAPIError(t, body); status != http.StatusGatewayTimeout || ae.Code != "deadline_exceeded" {
		t.Fatalf("UQ13 p=0.4: status %d code %q, want 504 deadline_exceeded", status, ae.Code)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("50 ms deadline answered after %v", elapsed)
	}
}

// TestRequestTimeoutCeiling: the server's RequestTimeout clamps client
// deadlines (including "no deadline").
func TestRequestTimeoutCeiling(t *testing.T) {
	store, trs := buildStore(t, 400, equivSeed)
	_, base, client := startGateway(t, Options{
		Backend:        EngineBackend{Eng: engine.New(0), Store: store},
		RequestTimeout: time.Millisecond,
	}, nil)
	var reqs []engine.Request
	for i := 0; i < 64; i++ {
		reqs = append(reqs, engine.Request{
			Kind: engine.KindUQ31, QueryOID: trs[i].OID, Tb: 0, Te: 30 + float64(i)/100,
		})
	}
	// No client deadline at all: the ceiling still applies.
	status, body := postJSON(t, client, base+"/v1/batch", "", batchRequest{Requests: reqs})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("ceiling: status %d, want 504 (body %.200s)", status, body)
	}
}

// TestBadRequests: malformed bodies, empty batches, oversized payloads,
// and wrong methods map to their taxonomy codes.
func TestBadRequests(t *testing.T) {
	store, _ := buildStore(t, 5, equivSeed)
	_, base, client := startGateway(t, Options{
		Backend:      EngineBackend{Eng: engine.New(0), Store: store},
		MaxBodyBytes: 1024,
	}, nil)

	resp, err := client.Post(base+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if ae := decodeAPIError(t, body); ae.Code != "bad_request" {
		t.Fatalf("malformed body: code %q", ae.Code)
	}

	status, body := postJSON(t, client, base+"/v1/batch", "", batchRequest{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", status)
	}

	// A body past MaxBodyBytes answers 413.
	big := batchRequest{Requests: make([]engine.Request, 64)}
	status, body = postJSON(t, client, base+"/v1/batch", "", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (body %.200s)", status, body)
	}
	if ae := decodeAPIError(t, body); ae.Code != "body_too_large" {
		t.Fatalf("oversized body: code %q", ae.Code)
	}

	// Wrong method on a known pattern.
	resp, err = client.Get(base + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: status %d, want 405", resp.StatusCode)
	}

	// Ingest/subscribe without a hub answer 501.
	status, body = postJSON(t, client, base+"/v1/ingest", "",
		ingestRequest{Updates: []serve.WireUpdate{{OID: 1, Verts: [][3]float64{{0, 0, 0}, {1, 1, 1}}}}})
	if status != http.StatusNotImplemented {
		t.Fatalf("ingest without hub: status %d, want 501", status)
	}
	resp, err = client.Get(base + "/v1/subscribe?kind=UQ31")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("subscribe without hub: status %d, want 501", resp.StatusCode)
	}
}

// TestOpenAPIServed: the committed spec is served verbatim.
func TestOpenAPIServed(t *testing.T) {
	store, _ := buildStore(t, 5, equivSeed)
	_, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
	}, nil)
	resp, err := client.Get(base + "/openapi.yaml")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("openapi: status %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("openapi: 3.0")) || !bytes.Contains(body, []byte("/v1/query")) {
		t.Fatalf("openapi spec looks wrong (%d bytes)", len(body))
	}
	// The ingest shapes document retirement and the resume taxonomy its
	// expiry code.
	for _, field := range []string{"retire:", "retired:", "sub_expired"} {
		if !bytes.Contains(body, []byte(field)) {
			t.Fatalf("openapi spec does not mention %q", field)
		}
	}
}

// TestOpenAPIKindEnum: the spec's Request.kind enum is the engine's kind
// table, in its order — a kind the server rejects cannot be documented,
// and one it accepts cannot be missing.
func TestOpenAPIKindEnum(t *testing.T) {
	spec := string(openapi.Spec)
	i := strings.Index(spec, "\n    Request:\n")
	if i < 0 {
		t.Fatal("spec has no Request schema")
	}
	const key = "enum: "
	j := strings.Index(spec[i:], key)
	if j < 0 {
		t.Fatal("Request schema has no enum")
	}
	line := spec[i+j+len(key):]
	line = line[:strings.IndexByte(line, '\n')]
	var got []engine.Kind
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("enum %q: %v", line, err)
	}
	if want := engine.Kinds(); !slices.Equal(got, want) {
		t.Fatalf("spec enum %v, engine kinds %v", got, want)
	}
}

// TestIngestRetire: POST /v1/ingest carries `retire` and reports `retired`,
// exactly as the line protocol's ingest op does.
func TestIngestRetire(t *testing.T) {
	store, trs := buildStore(t, 5, equivSeed)
	_, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Hub:     newTestHub(t, store),
	}, nil)
	victim := trs[1].OID
	status, body := postJSON(t, client, base+"/v1/ingest", "",
		json.RawMessage(fmt.Sprintf(`{"updates":[{"oid":%d,"retire":true}]}`, victim)))
	if status != http.StatusOK {
		t.Fatalf("retire: status %d (body %s)", status, body)
	}
	var reply struct {
		Applied []map[string]any `json:"applied"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Applied) != 1 || reply.Applied[0]["retired"] != true || reply.Applied[0]["oid"] != float64(victim) {
		t.Fatalf("retire outcome = %s", body)
	}
	if _, has := reply.Applied[0]["changed_from"]; has {
		t.Fatalf("retire outcome carries changed_from: %s", body)
	}
	if _, err := store.Get(victim); !errors.Is(err, mod.ErrNotFound) {
		t.Fatalf("retired object still stored: %v", err)
	}
	// Retiring it again is the typed 404.
	status, body = postJSON(t, client, base+"/v1/ingest", "",
		json.RawMessage(fmt.Sprintf(`{"updates":[{"oid":%d,"retire":true}]}`, victim)))
	if ae := decodeAPIError(t, body); status != http.StatusNotFound || ae.Code != "not_found" {
		t.Fatalf("second retire: status %d code %q", status, ae.Code)
	}
}

// TestIngestPackedVerticesRefused: the packed vertex form is the shard
// link's, not public API. A /v1/ingest body carrying vb is a 400 that
// applies nothing, and the reply to the same update as triples is its
// outcome alone, in neither vertex form.
func TestIngestPackedVerticesRefused(t *testing.T) {
	store, _ := buildStore(t, 5, equivSeed)
	_, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Hub:     newTestHub(t, store),
	}, nil)
	verts := [][3]float64{{1, 2, 0}, {3, 4, 10}}
	packed := serve.PackVerts([]trajectory.Vertex{{X: 1, Y: 2, T: 0}, {X: 3, Y: 4, T: 10}})
	before := store.Version()
	status, body := postJSON(t, client, base+"/v1/ingest", "",
		ingestRequest{Updates: []serve.WireUpdate{{OID: 9001, Verts: verts}, {OID: 9002, VB: packed}}})
	if ae := decodeAPIError(t, body); status != http.StatusBadRequest || ae.Code != "bad_request" {
		t.Fatalf("packed ingest: status %d code %q, want 400 bad_request", status, ae.Code)
	}
	if store.Version() != before {
		t.Fatal("a refused batch applied a prefix")
	}
	status, body = postJSON(t, client, base+"/v1/ingest", "",
		ingestRequest{Updates: []serve.WireUpdate{{OID: 9001, Verts: verts}}})
	if status != http.StatusOK || string(body) != `{"applied":[{"oid":9001,"inserted":true}]}`+"\n" {
		t.Fatalf("array ingest: status %d body %s", status, body)
	}
}

// TestIngestReplyCarriesNoPlan: the reply's size does not depend on the
// plan's. Two revisions of one OID from the same time, one with 2
// vertices and one with 200, get replies of equal length.
func TestIngestReplyCarriesNoPlan(t *testing.T) {
	store, trs := buildStore(t, 5, equivSeed)
	_, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Hub:     newTestHub(t, store),
	}, nil)
	tr := trs[2]
	t0 := (tr.Verts[0].T + tr.Verts[1].T) / 2
	var replies []string
	for _, n := range []int{2, 200} {
		verts := make([][3]float64, n)
		for i := range verts {
			verts[i] = [3]float64{1.25 + float64(i)/7, 2.5, t0 + float64(i)}
		}
		status, body := postJSON(t, client, base+"/v1/ingest", "",
			ingestRequest{Updates: []serve.WireUpdate{{OID: tr.OID, Verts: verts}}})
		if status != http.StatusOK || strings.Contains(string(body), "inserted") {
			t.Fatalf("%d-vertex revision: status %d body %s", n, status, body)
		}
		replies = append(replies, string(body))
	}
	if len(replies[0]) != len(replies[1]) {
		t.Fatalf("reply length differs with the plan's size:\n%s%s", replies[0], replies[1])
	}
}

// TestShutdownDrains: Shutdown flips readiness, lets an in-flight query
// finish, and then refuses new connections.
func TestShutdownDrains(t *testing.T) {
	store, trs := buildStore(t, 400, equivSeed)
	srv, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
	}, nil)

	var reqs []engine.Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, engine.Request{
			Kind: engine.KindUQ31, QueryOID: trs[i].OID, Tb: 0, Te: 30 + float64(i)/100,
		})
	}
	type reply struct {
		status int
		body   []byte
	}
	got := make(chan reply, 1)
	go func() {
		status, body := postJSON(t, client, base+"/v1/batch", "", batchRequest{Requests: reqs})
		got <- reply{status, body}
	}()
	time.Sleep(50 * time.Millisecond) // let the batch reach the engine

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-got
	if r.status != http.StatusOK {
		t.Fatalf("in-flight batch severed by shutdown: status %d (body %.200s)", r.status, r.body)
	}
	// New connections are refused once the listener is down.
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Fatal("request succeeded after shutdown")
	}
}

// TestReadyzDrains: readyz flips to 503 as soon as draining starts.
func TestReadyzDrains(t *testing.T) {
	store, _ := buildStore(t, 5, equivSeed)
	srv, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
	}, nil)
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	srv.draining.Store(true)
	resp, err = client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	srv.draining.Store(false)
}
