package gateway

// The spatio-textual HTTP surface end to end: a `where` predicate rides
// the subscribe query string into a standing filtered query, a pure tag
// flip crosses /v1/ingest as a tags-only update (no vertices), its
// applied outcome encodes the +Inf ChangedFrom as the tags_only marker,
// and the flip's membership change reaches the filtered SSE stream as a
// diff event.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/textidx"
)

func TestGatewayFilteredSubscribeAndTaggedIngest(t *testing.T) {
	store, trs := buildStore(t, 20, equivSeed)
	where := &textidx.Predicate{All: []string{"available"}}
	for _, tr := range trs[1:3] {
		if err := store.SetTags(tr.OID, []string{"available"}); err != nil {
			t.Fatal(err)
		}
	}
	eng := engine.New(0)
	hub := newTestHub(t, store)
	_, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: eng, Store: store},
		Hub:     hub,
	}, nil)

	q := trs[0].OID
	mkReq := func(w *textidx.Predicate) engine.Request {
		return engine.Request{Kind: engine.KindUQ31, QueryOID: q, Tb: equivTb, Te: equivTe, Where: w}
	}

	// Ground truth before any flip: the filtered answer directly from the
	// engine, and the unfiltered answer to pick a flip target from.
	wantRes, err := eng.Do(t.Context(), store, mkReq(where))
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := eng.Do(t.Context(), store, mkReq(nil))
	if err != nil {
		t.Fatal(err)
	}
	var flip int64 = -1
	for _, oid := range plainRes.OIDs {
		if !slices.Contains(wantRes.OIDs, oid) && !where.Matches(store.Tags(oid)) {
			flip = oid
			break
		}
	}
	if flip < 0 {
		t.Fatalf("no untagged possible NN to flip (plain %v, filtered %v)", plainRes.OIDs, wantRes.OIDs)
	}

	sub := fmt.Sprintf("%s/v1/subscribe?kind=UQ31&query_oid=%d&tb=%g&te=%g&where=%s",
		base, q, equivTb, equivTe, url.QueryEscape(`{"all":["available"]}`))
	conn := openSSE(t, client, sub, "")
	defer conn.close()
	first := conn.next(t)
	if first.event != "subscribed" {
		t.Fatalf("first frame event %q", first.event)
	}
	var se subscribedEvent
	if err := json.Unmarshal(first.data, &se); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(se.Result.OIDs, wantRes.OIDs) {
		t.Fatalf("subscribed answer %v, want filtered %v", se.Result.OIDs, wantRes.OIDs)
	}

	// A malformed predicate is refused up front, not accepted as unfiltered.
	bad, err := http.NewRequest(http.MethodGet,
		base+"/v1/subscribe?kind=UQ31&query_oid=1&tb=0&te=1&where="+url.QueryEscape(`{"all":[]}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(bad)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty predicate subscribe: status %d, want 400", resp.StatusCode)
	}

	// Pure tag flip over HTTP: no verts, tags only.
	tags := []string{"available"}
	status, body := postJSON(t, client, base+"/v1/ingest", "",
		ingestRequest{Updates: []serve.WireUpdate{{OID: flip, Tags: &tags}}})
	if status != http.StatusOK {
		t.Fatalf("tag-flip ingest: status %d (body %.300s)", status, body)
	}
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.Applied) != 1 {
		t.Fatalf("applied %d outcomes, want 1", len(ir.Applied))
	}
	a := ir.Applied[0]
	if !a.TagsOnly || !a.TagsChanged || a.Inserted {
		t.Fatalf("pure flip applied = %+v, want tags_only && tags_changed", a)
	}
	if !slices.Equal(a.Tags, tags) || a.PrevTags != nil {
		t.Fatalf("pure flip tags = %v / prev %v", a.Tags, a.PrevTags)
	}
	if strings.Contains(string(body), "changed_from") {
		t.Fatalf("pure flip leaked changed_from onto the wire: %.300s", body)
	}

	// The flip joined the sub-MOD, so the filtered subscription must emit a
	// diff adding the flipped object.
	diff := conn.next(t)
	if diff.event != "diff" {
		t.Fatalf("frame after flip: event %q", diff.event)
	}
	var ev struct {
		Added []int64 `json:"added"`
		OIDs  []int64 `json:"oids"`
	}
	if err := json.Unmarshal(diff.data, &ev); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ev.Added, flip) {
		t.Fatalf("diff after flip added %v, want %d", ev.Added, flip)
	}
	wantAfter, err := eng.Do(t.Context(), store, mkReq(where))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ev.OIDs, wantAfter.OIDs) {
		t.Fatalf("diff answer %v, want %v", ev.OIDs, wantAfter.OIDs)
	}
}
