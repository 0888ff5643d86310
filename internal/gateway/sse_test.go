package gateway

// SSE transport tests: resume status codes, Last-Event-ID, the
// full-buffer sever and drain. The session semantics every codec shares
// (stream order, resume suffixes, LRU and TTL bounds) are pinned once, for
// both codecs, by internal/serve's conformance suite.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/serve"
	"repro/internal/trajectory"
)

func newTestHub(t testing.TB, store *mod.Store) *continuous.Hub {
	t.Helper()
	hub := continuous.NewEngineHub(store, engine.New(0))
	t.Cleanup(hub.Close)
	return hub
}

// sseConn is a minimal SSE consumer over one GET /v1/subscribe stream.
type sseConn struct {
	resp *http.Response
	br   *bufio.Reader
}

type sseFrame struct {
	event string
	id    string
	data  []byte
}

func openSSE(t testing.TB, client *http.Client, url, token string) *sseConn {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		buf := make([]byte, 512)
		n, _ := resp.Body.Read(buf)
		t.Fatalf("subscribe %s: status %d (body %s)", url, resp.StatusCode, buf[:n])
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe content type %q", ct)
	}
	return &sseConn{resp: resp, br: bufio.NewReader(resp.Body)}
}

func (c *sseConn) close() { c.resp.Body.Close() }

// next reads one SSE frame (relies on the test -timeout to bound a
// wedged stream).
func (c *sseConn) next(t testing.TB) sseFrame {
	t.Helper()
	var f sseFrame
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			t.Fatalf("sse read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if f.data != nil {
				return f
			}
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			f.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			f.data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
}

func canonicalEvent(t testing.TB, ev continuous.Event) string {
	t.Helper()
	ev.Explain.ShardExplains = append([]engine.Explain(nil), ev.Explain.ShardExplains...)
	normWalls(&ev.Explain)
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// hugVerts returns a copy of tr's vertices up to tMax, offset slightly
// in x — a shadow object guaranteed to contest tr's NN zone.
func hugVerts(tr *trajectory.Trajectory, tMax float64) [][3]float64 {
	var out [][3]float64
	for _, v := range tr.Verts {
		if v.T > tMax {
			break
		}
		out = append(out, [3]float64{v.X + 0.05, v.Y, v.T})
	}
	return out
}

// waitDetached polls until the stream's handler has parked subscription
// id as detached (the handler notices the severed connection
// asynchronously).
func waitDetached(t testing.TB, srv *Server, id int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.core.Detached(id) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("subscription %d never parked as detached", id)
}

// TestResumeValidation: resuming an unknown subscription answers 404, a
// live one 400, and a resume past the replay window 410 event_gap.
func TestResumeValidation(t *testing.T) {
	store, trs := buildStore(t, 20, equivSeed)
	hub := newTestHub(t, store)
	srv, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Hub:     hub,
		Metrics: NewMetrics(nil),
	}, nil)

	// get reads a refusal's body; a 200 is an SSE stream that never ends,
	// so it returns at once with the status alone.
	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return resp.StatusCode, nil
		}
		buf := new(bytes.Buffer)
		_, _ = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// Unknown subscription.
	status, body := get(base + "/v1/subscribe?sub_id=777&from_seq=0")
	if status != http.StatusNotFound {
		t.Fatalf("unknown resume: status %d, want 404 (body %s)", status, body)
	}

	// A live stream cannot be claimed by a second connection.
	q := trs[0]
	stream := openSSE(t, client, fmt.Sprintf(
		"%s/v1/subscribe?kind=UQ31&query_oid=%d&tb=0&te=30", base, q.OID), "")
	defer stream.close()
	hello := stream.next(t)
	var sub subscribedEvent
	if err := json.Unmarshal(hello.data, &sub); err != nil {
		t.Fatal(err)
	}
	status, body = get(fmt.Sprintf("%s/v1/subscribe?sub_id=%d&from_seq=0", base, sub.SubID))
	if status != http.StatusBadRequest {
		t.Fatalf("live resume: status %d, want 400 (body %s)", status, body)
	}

	// Sever, advance the world by one event more than the backlog holds
	// (a hugging object arrives and retires in turn), resume from the
	// start: the replay is a gap — 410.
	stream.close()
	waitDetached(t, srv, sub.SubID)
	arrive := []serve.WireUpdate{{OID: 9001, Verts: hugVerts(q, 35)}}
	retire := []serve.WireUpdate{{OID: 9001, Retire: true}}
	for i := 0; i <= continuous.DefaultBacklog; i++ {
		upd := arrive
		if i%2 == 1 {
			upd = retire
		}
		if status, body := postJSON(t, client, base+"/v1/ingest", "", ingestRequest{Updates: upd}); status != http.StatusOK {
			t.Fatalf("ingest %d: status %d (body %.300s)", i, status, body)
		}
	}
	if evs, err := hub.Replay(sub.SubID, continuous.DefaultBacklog); err != nil || len(evs) != 1 ||
		evs[0].Seq != continuous.DefaultBacklog+1 {
		t.Fatalf("after %d ingests the backlog tail is %v (err %v), want the one event at seq %d",
			continuous.DefaultBacklog+1, evs, err, continuous.DefaultBacklog+1)
	}
	status, body = get(fmt.Sprintf("%s/v1/subscribe?sub_id=%d&from_seq=0", base, sub.SubID))
	if status != http.StatusGone {
		t.Fatalf("gap resume: status %d, want 410 (body %s)", status, body)
	}
	if ae := decodeAPIError(t, body); ae.Code != "event_gap" {
		t.Fatalf("gap resume: code %q, want event_gap", ae.Code)
	}

	// Bad resume parameters.
	if status, _ = get(base + "/v1/subscribe?sub_id=xyz"); status != http.StatusBadRequest {
		t.Fatalf("bad sub_id: status %d, want 400", status)
	}
	if status, _ = get(base + "/v1/subscribe?sub_id=5"); status != http.StatusBadRequest {
		t.Fatalf("missing from_seq: status %d, want 400", status)
	}
	// Bad standing-query parameters.
	if status, _ = get(base + "/v1/subscribe?kind=UQ31&tb=abc"); status != http.StatusBadRequest {
		t.Fatalf("bad tb: status %d, want 400", status)
	}
	if status, _ = get(base + "/v1/subscribe?kind=NOPE&tb=0&te=30"); status != http.StatusBadRequest {
		t.Fatalf("bad kind: status %d, want 400", status)
	}
}

// TestLastEventIDResume: a plain EventSource reconnect (Last-Event-ID
// header, no from_seq param) resumes too.
func TestLastEventIDResume(t *testing.T) {
	store, trs := buildStore(t, 20, equivSeed)
	hub := newTestHub(t, store)
	srv, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Hub:     hub,
	}, nil)

	q := trs[0]
	stream := openSSE(t, client, fmt.Sprintf(
		"%s/v1/subscribe?kind=UQ31&query_oid=%d&tb=0&te=30", base, q.OID), "")
	hello := stream.next(t)
	var sub subscribedEvent
	if err := json.Unmarshal(hello.data, &sub); err != nil {
		t.Fatal(err)
	}
	if status, body := postJSON(t, client, base+"/v1/ingest", "",
		ingestRequest{Updates: []serve.WireUpdate{{OID: 9001, Verts: hugVerts(q, 35)}}}); status != http.StatusOK {
		t.Fatalf("ingest: status %d (body %.300s)", status, body)
	}
	ev := stream.next(t)
	stream.close()
	waitDetached(t, srv, sub.SubID)

	if status, body := postJSON(t, client, base+"/v1/ingest", "",
		ingestRequest{Updates: []serve.WireUpdate{{OID: 9001, Verts: [][3]float64{{500, 500, 5}, {501, 501, 40}}}}}); status != http.StatusOK {
		t.Fatalf("ingest 2: status %d (body %.300s)", status, body)
	}

	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/subscribe?sub_id=%d", base, sub.SubID), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", ev.id)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Last-Event-ID resume: status %d", resp.StatusCode)
	}
	sc := &sseConn{resp: resp, br: bufio.NewReader(resp.Body)}
	if f := sc.next(t); f.event != "subscribed" {
		t.Fatalf("resume frame event %q", f.event)
	}
	replayed := sc.next(t)
	if replayed.event != "diff" {
		t.Fatalf("replayed frame event %q", replayed.event)
	}
	var got continuous.Event
	if err := json.Unmarshal(replayed.data, &got); err != nil {
		t.Fatal(err)
	}
	want, err := hub.Replay(sub.SubID, mustUint(t, ev.id))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no replay events retained")
	}
	if cw, cg := canonicalEvent(t, want[0]), canonicalEvent(t, got); cw != cg {
		t.Fatalf("Last-Event-ID replay diverged\n got: %s\nwant: %s", cg, cw)
	}
}

func mustUint(t testing.TB, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDeliverSeversFullBuffer: a stream whose buffer is full is severed
// (channel closed, error to the core) instead of blocking ingest — the
// white-box twin of the stalled-consumer path.
func TestDeliverSeversFullBuffer(t *testing.T) {
	st := &sseStream{ch: make(chan continuous.Event, 1)}
	if err := st.Deliver(continuous.Event{SubID: 7, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Deliver(continuous.Event{SubID: 7, Seq: 2}); err == nil {
		t.Fatal("full buffer accepted an event")
	}
	if ev, ok := <-st.ch; !ok || ev.Seq != 1 {
		t.Fatalf("buffered event: ok=%v seq=%d, want seq 1", ok, ev.Seq)
	}
	if _, ok := <-st.ch; ok {
		t.Fatal("channel not closed after sever")
	}
}

// TestShutdownSeversStreams: drain closes live SSE streams promptly (the
// stream ends mid-connection) and the server shuts down within its
// grace period.
func TestShutdownSeversStreams(t *testing.T) {
	store, trs := buildStore(t, 20, equivSeed)
	hub := newTestHub(t, store)
	srv, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Hub:     hub,
	}, nil)

	stream := openSSE(t, client, fmt.Sprintf(
		"%s/v1/subscribe?kind=UQ31&query_oid=%d&tb=0&te=30", base, trs[0].OID), "")
	defer stream.close()
	stream.next(t) // subscribed

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with live stream: %v", err)
	}
	// The stream ended (EOF), not wedged until the grace deadline.
	if _, err := stream.br.ReadString('\n'); err == nil {
		t.Fatal("stream still delivering after shutdown")
	}
}
