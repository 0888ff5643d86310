package gateway

// Exposition tests: the gateway's metric families render byte-stable
// Prometheus text (golden file), and every label is drawn from a closed
// set — no per-OID or per-query labels can ever be minted by traffic.

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/textidx"
	"repro/internal/wal"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestMetricsGolden drives every recording path with fixed values and
// compares the full exposition to the committed golden file. Run with
// -update-golden to regenerate.
func TestMetricsGolden(t *testing.T) {
	m := NewMetrics(nil)

	m.recordHTTP("POST /v1/query", 200, 3*time.Millisecond)
	m.recordHTTP("POST /v1/query", 404, 120*time.Millisecond)
	m.recordHTTP("GET /v1/subscribe", 200, 40*time.Millisecond)
	m.recordHTTP("", 404, time.Millisecond)

	m.recordQuery(engine.Result{
		Kind: engine.KindUQ31,
		Explain: engine.Explain{
			Candidates: 40, Survivors: 6, MemoHit: true, Workers: 4,
			Wall: 2 * time.Millisecond, Shards: 2,
			ShardExplains: []engine.Explain{
				{Candidates: 20, Survivors: 3, Wall: time.Millisecond},
				{Candidates: 20, Survivors: 3, Wall: 900 * time.Microsecond},
			},
			Degraded: true, MissingShards: []string{"shard-1"},
		},
	}, false)
	m.recordQuery(engine.Result{
		Kind: engine.KindUQ31,
		Explain: engine.Explain{
			Candidates: 4, Survivors: 2, Wall: time.Millisecond,
			TextualCandidates: 4, SpatialCandidates: 40,
		},
	}, true)
	m.recordQuery(engine.Result{Kind: "NOPE", Err: engine.ErrBadKind}, false)
	m.recordQuery(engine.Result{
		Kind: engine.KindUQ11, Err: engine.ErrUnknownOID,
		Explain: engine.Explain{Wall: 500 * time.Microsecond},
	}, false)

	m.recordIngest(3, nil)
	m.recordIngest(0, badReq(fmt.Errorf("empty")))

	m.streamAttached()
	m.countEvents(2)
	m.countResume()
	m.countGap()
	m.streamDetached()
	m.streamAttached()

	m.ShardRetryHook()("shard-1", 1, nil)
	m.ShardRetryHook()("shard-1", 2, nil)

	m.ObserveHub(func() continuous.Stats {
		return continuous.Stats{Ingested: 5, Evals: 4, Skips: 3, Patched: 3, Rebuilt: 1}
	})
	m.ObserveWAL(func() wal.Stats {
		return wal.Stats{Appends: 2, AppendedBytes: 4096, Snapshots: 1}
	})

	var sb strings.Builder
	m.Registry().WriteText(&sb)
	got := sb.String()

	const golden = "testdata/exposition.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition diverged from %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestMetricsLabelCardinality: every registered family uses only labels
// from the closed allow-list; nothing can key a series on a client-
// controlled value. The families and their label names are read off the
// exposition, after one observation through every recording path gives
// each labeled family a series.
func TestMetricsLabelCardinality(t *testing.T) {
	m := NewMetrics(nil)
	m.ObserveHub(func() continuous.Stats { return continuous.Stats{} })
	m.ObserveWAL(func() wal.Stats { return wal.Stats{} })
	m.recordHTTP("/v1/query", http.StatusOK, time.Millisecond)
	m.recordQuery(engine.Result{Kind: engine.KindUQ31, Explain: engine.Explain{
		Degraded: true, MissingShards: []string{"s1"}, ShardExplains: []engine.Explain{{}},
	}}, false)
	m.recordIngest(1, nil)
	m.ShardRetryHook()("s1", 1, nil)
	allowed := map[string]bool{
		"route": true, "code": true, "kind": true,
		"outcome": true, "shard": true, "le": true, "filtered": true,
	}
	exposition := func() []string {
		var b strings.Builder
		m.Registry().WriteText(&b)
		return strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	}
	families := 0
	for _, line := range exposition() {
		if strings.HasPrefix(line, "# TYPE ") {
			families++
			continue
		}
		_, labels, ok := strings.Cut(line, "{")
		if strings.HasPrefix(line, "#") || !ok {
			continue
		}
		labels, _, _ = strings.Cut(labels, "}")
		for _, pair := range strings.Split(labels, ",") {
			if l, _, _ := strings.Cut(pair, "="); !allowed[l] {
				t.Fatalf("series %s uses label %q outside the allow-list", line, l)
			}
		}
	}
	if families < 15 {
		t.Fatalf("only %d families registered", families)
	}

	// Hostile kinds cannot mint series: any number of distinct invalid
	// kinds collapses onto the single kind="invalid" series.
	seriesCount := func(name string) int {
		n := 0
		for _, line := range exposition() {
			if strings.HasPrefix(line, name+"{") {
				n++
			}
		}
		return n
	}
	before := seriesCount("gateway_query_requests_total")
	m.recordQuery(engine.Result{Kind: "oid-4242-probe"}, false)
	m.recordQuery(engine.Result{Kind: "oid-9999-probe"}, false)
	m.recordQuery(engine.Result{Kind: "oid-1234-probe"}, false)
	if after := seriesCount("gateway_query_requests_total"); after != before+1 {
		t.Fatalf("3 hostile kinds minted %d new series, want 1 (invalid)", after-before)
	}

	// The filtered label is derived from a bool — hostile predicates of any
	// content fan onto exactly the two closed values, one extra series here.
	before = seriesCount("gateway_query_requests_total")
	m.recordQuery(engine.Result{Kind: "oid-4242-probe"}, true)
	m.recordQuery(engine.Result{Kind: "oid-5555-probe"}, true)
	if after := seriesCount("gateway_query_requests_total"); after != before+1 {
		t.Fatalf("filtered probes minted %d new series, want 1 (invalid/true)", after-before)
	}
}

// TestMetricsEndToEnd: real traffic through the full stack lands in the
// exposition — request counts, query outcomes, prune counters, hub and
// WAL counters — and /metrics stays a valid text/plain 0.0.4 surface.
func TestMetricsEndToEnd(t *testing.T) {
	store, trs := buildStore(t, 20, equivSeed)
	// Tag a couple of objects so the filtered query below has a non-empty
	// sub-MOD to run over.
	for _, tr := range trs[1:3] {
		if err := store.SetTags(tr.OID, []string{"available"}); err != nil {
			t.Fatal(err)
		}
	}
	hub := newTestHub(t, store)
	m := NewMetrics(nil)
	log, err := wal.Create(t.TempDir()+"/wal", store, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	m.ObserveHub(hub.Stats)
	m.ObserveWAL(log.Stats)
	_, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Hub:     hub,
		Journal: log,
		Store:   store,
		Metrics: m,
	}, nil)

	okReq := queryRequest{Request: engine.Request{
		Kind: engine.KindUQ31, QueryOID: trs[0].OID, Tb: equivTb, Te: equivTe,
	}}
	if status, body := postJSON(t, client, base+"/v1/query", "", okReq); status != http.StatusOK {
		t.Fatalf("query: status %d (body %.200s)", status, body)
	}
	missingReq := okReq
	missingReq.QueryOID = 987654321
	if status, _ := postJSON(t, client, base+"/v1/query", "", missingReq); status != http.StatusNotFound {
		t.Fatal("expected 404 for unknown query OID")
	}
	filteredReq := okReq
	filteredReq.Where = &textidx.Predicate{All: []string{"available"}}
	if status, body := postJSON(t, client, base+"/v1/query", "", filteredReq); status != http.StatusOK {
		t.Fatalf("filtered query: status %d (body %.200s)", status, body)
	}
	tags := []string{"available"}
	ingest := ingestRequest{Updates: []serve.WireUpdate{{OID: 9001, Verts: hugVerts(trs[0], 35), Tags: &tags}}}
	if status, body := postJSON(t, client, base+"/v1/ingest", "", ingest); status != http.StatusOK {
		t.Fatalf("ingest: status %d (body %.200s)", status, body)
	}

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	buf := new(strings.Builder)
	if _, err := fmt.Fprint(buf, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, needle := range []string{
		`gateway_requests_total{route="POST /v1/query",code="200"} 2`,
		`gateway_requests_total{route="POST /v1/query",code="404"} 1`,
		`gateway_query_requests_total{kind="UQ31",outcome="ok",filtered="false"} 1`,
		`gateway_query_requests_total{kind="UQ31",outcome="ok",filtered="true"} 1`,
		`gateway_query_requests_total{kind="UQ31",outcome="not_found",filtered="false"} 1`,
		`gateway_ingest_updates_total 1`,
		`hub_ingested_updates_total 1`,
		`wal_appends_total 1`,
	} {
		if !strings.Contains(text, needle) {
			t.Fatalf("/metrics missing %q in:\n%s", needle, text)
		}
	}
	// The prune counters moved with the evaluated query.
	if strings.Contains(text, "engine_prune_candidates_total 0\n") {
		t.Fatal("prune candidates counter never advanced")
	}
}

func readAll(t testing.TB, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestNewValidation: construction contract errors.
func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without a backend succeeded")
	}
	store, _ := buildStore(t, 5, equivSeed)
	log, err := wal.Create(t.TempDir()+"/wal", store, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	if _, err := New(Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Journal: log,
	}); err == nil {
		t.Fatal("New with a journal but no store succeeded")
	}
}
