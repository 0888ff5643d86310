// The live-serving conformance suite: one table of session behaviours run
// against both codecs — the line protocol (modserver) and HTTP+SSE
// (gateway) — through a tiny per-codec client adapter. Whatever a case
// asserts, it asserts of both front doors, against one oracle: the hub's
// own retained event backlog and current answer.
package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/serve"
	"repro/internal/trajectory"
)

// config is what a case may ask of a server, in codec-neutral terms.
type config struct {
	journal serve.Journal
	token   string
}

// client is the per-codec adapter: the three live operations, a query
// batch, and the two ways to fail that are not an op's — an unparseable
// request and a subscription ID nobody holds (the line protocol's
// unsubscribe, the gateway's resume). Each failure is rebuilt from its
// code by serve.Rebuild: the codec's own client does it on the line
// protocol, httpErr on HTTP.
type client interface {
	ingest(updates []mod.Update) ([]mod.Applied, error)
	subscribe(req engine.Request) (*session, error)
	resume(id int64, fromSeq uint64) (*session, error)
	batch(reqs []engine.Request) ([]engine.Result, error)
	malformed() error
	forget(id int64) error
}

// session is one attached subscription stream.
type session struct {
	id     int64
	answer engine.Result
	next   func() (continuous.Event, error)
	drop   func() // severs the transport; the subscription is not unsubscribed
}

// world is one served store.
type world struct {
	store *mod.Store
	core  *serve.Core
	dial  func(token string) client
}

type codec struct {
	name  string
	start func(t *testing.T, store *mod.Store, cfg config) world
}

var codecs = []codec{{"line", startLine}, {"http", startHTTP}}

// ---- the line-protocol adapter ---------------------------------------

func startLine(t *testing.T, store *mod.Store, cfg config) world {
	srv := modserver.NewServerWith(store, engine.New(1), modserver.Options{Journal: cfg.journal, Token: cfg.token})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	t.Cleanup(func() { srv.Close(); <-done })
	return world{store: store, core: srv.Core(), dial: func(token string) client {
		return lineClient{t: t, addr: l.Addr().String(), token: token}
	}}
}

type lineClient struct {
	t     *testing.T
	addr  string
	token string
}

func (c lineClient) conn() (*modserver.Client, error) {
	cli, err := modserver.DialWith(c.addr, modserver.DialOptions{Token: c.token})
	if err != nil {
		return nil, err
	}
	c.t.Cleanup(func() { cli.Close() })
	return cli, nil
}

func (c lineClient) ingest(updates []mod.Update) ([]mod.Applied, error) {
	cli, err := c.conn()
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	return cli.Ingest(updates)
}

func (c lineClient) attach(op func(cli *modserver.Client) (int64, engine.Result, error)) (*session, error) {
	cli, err := c.conn()
	if err != nil {
		return nil, err
	}
	id, answer, err := op(cli)
	if err != nil {
		cli.Close()
		return nil, err
	}
	return &session{id: id, answer: answer, next: cli.NextEvent, drop: func() { cli.Close() }}, nil
}

func (c lineClient) subscribe(req engine.Request) (*session, error) {
	return c.attach(func(cli *modserver.Client) (int64, engine.Result, error) { return cli.Subscribe(req) })
}

func (c lineClient) resume(id int64, fromSeq uint64) (*session, error) {
	return c.attach(func(cli *modserver.Client) (int64, engine.Result, error) {
		answer, err := cli.Resume(id, fromSeq)
		return id, answer, err
	})
}

func (c lineClient) batch(reqs []engine.Request) ([]engine.Result, error) {
	cli, err := c.conn()
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	return cli.Query(reqs, 0)
}

func (c lineClient) malformed() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("{\"op\":\n")); err != nil {
		return err
	}
	var resp modserver.Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil || resp.OK {
		return fmt.Errorf("reply to a malformed line: %+v, %v", resp, err)
	}
	return serve.Rebuild(resp.Code, resp.Error)
}

func (c lineClient) forget(id int64) error {
	cli, err := c.conn()
	if err != nil {
		return err
	}
	defer cli.Close()
	return cli.Unsubscribe(id)
}

// ---- the HTTP+SSE adapter --------------------------------------------

func startHTTP(t *testing.T, store *mod.Store, cfg config) world {
	eng := engine.New(1)
	gw, err := gateway.New(gateway.Options{
		Backend: gateway.EngineBackend{Eng: eng, Store: store}, Hub: continuous.NewEngineHub(store, eng), Store: store,
		Journal: cfg.journal, Token: cfg.token,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return world{store: store, core: gw.Core(), dial: func(token string) client {
		return httpClient{t: t, base: ts.URL, token: token}
	}}
}

type httpClient struct {
	t     *testing.T
	base  string
	token string
}

func (c httpClient) do(method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return http.DefaultClient.Do(req)
}

// httpErr rebuilds the typed identity of a non-200 reply from its error
// code through serve's table (and only under the status the table pairs
// it with), returning the raw body for callers that want more of it.
func httpErr(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	var eb struct{ Error serve.WireError }
	_ = json.Unmarshal(buf.Bytes(), &eb)
	err := serve.Rebuild(eb.Error.Code, eb.Error.Message)
	if _, status := serve.Classify(err); status != resp.StatusCode {
		return buf.Bytes(), fmt.Errorf("http %d %s: %s", resp.StatusCode, eb.Error.Code, eb.Error.Message)
	}
	return buf.Bytes(), fmt.Errorf("http %d: %w", resp.StatusCode, err)
}

func (c httpClient) ingest(updates []mod.Update) ([]mod.Applied, error) {
	// The public form: the gateway refuses the shard link's packed one.
	wire := make([]serve.WireUpdate, len(updates))
	for i, u := range updates {
		wire[i] = serve.WireUpdate{OID: u.OID, Verts: serve.EncodeVerts(u.Verts), Tags: u.Tags, Retire: u.Retire}
	}
	body, _ := json.Marshal(map[string]any{"updates": wire})
	resp, err := c.do(http.MethodPost, "/v1/ingest", body)
	if err != nil {
		return nil, err
	}
	var reply struct {
		Applied []serve.WireApplied `json:"applied"`
	}
	if resp.StatusCode != http.StatusOK {
		raw, herr := httpErr(resp)
		_ = json.Unmarshal(raw, &reply)
		partial, _ := serve.DecodeApplied(reply.Applied, nil)
		return partial, herr
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, err
	}
	return serve.DecodeApplied(reply.Applied, nil)
}

func (c httpClient) batch(reqs []engine.Request) ([]engine.Result, error) {
	body, _ := json.Marshal(map[string]any{"requests": reqs})
	resp, err := c.do(http.MethodPost, "/v1/batch", body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		_, herr := httpErr(resp)
		return nil, herr
	}
	defer resp.Body.Close()
	var reply struct{ Results []serve.Entry }
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, err
	}
	out := make([]engine.Result, len(reply.Results))
	for i, e := range reply.Results {
		out[i] = e.Decode(reqs[i].Kind)
	}
	return out, nil
}

func (c httpClient) malformed() error {
	resp, err := c.do(http.MethodPost, "/v1/batch", []byte(`{"requests":`))
	if err != nil {
		return err
	}
	_, herr := httpErr(resp)
	return herr
}

func (c httpClient) forget(id int64) error {
	_, err := c.resume(id, 0)
	return err
}

func (c httpClient) attach(query string) (*session, error) {
	resp, err := c.do(http.MethodGet, "/v1/subscribe?"+query, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		_, herr := httpErr(resp)
		return nil, herr
	}
	c.t.Cleanup(func() { resp.Body.Close() })
	br := bufio.NewReader(resp.Body)
	// frame reads one SSE frame's event name and data line.
	frame := func() (event string, data []byte, err error) {
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return "", nil, err
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case line == "" && data != nil:
				return event, data, nil
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = []byte(strings.TrimPrefix(line, "data: "))
			}
		}
	}
	event, data, err := frame()
	if err != nil || event != "subscribed" {
		resp.Body.Close()
		return nil, fmt.Errorf("first sse frame %q: %v", event, err)
	}
	var hello struct {
		SubID  int64         `json:"sub_id"`
		Result engine.Result `json:"result"`
	}
	if err := json.Unmarshal(data, &hello); err != nil {
		return nil, err
	}
	next := func() (continuous.Event, error) {
		var ev continuous.Event
		event, data, err := frame()
		if err != nil {
			return ev, err
		}
		if event != "diff" {
			return ev, fmt.Errorf("sse frame %q, want diff", event)
		}
		return ev, json.Unmarshal(data, &ev)
	}
	return &session{id: hello.SubID, answer: hello.Result, next: next, drop: func() { resp.Body.Close() }}, nil
}

func (c httpClient) subscribe(req engine.Request) (*session, error) {
	q := url.Values{"kind": {string(req.Kind)}}
	q.Set("query_oid", strconv.FormatInt(req.QueryOID, 10))
	q.Set("oid", strconv.FormatInt(req.OID, 10))
	q.Set("tb", strconv.FormatFloat(req.Tb, 'g', -1, 64))
	q.Set("te", strconv.FormatFloat(req.Te, 'g', -1, 64))
	return c.attach(q.Encode())
}

func (c httpClient) resume(id int64, fromSeq uint64) (*session, error) {
	return c.attach(fmt.Sprintf("sub_id=%d&from_seq=%d", id, fromSeq))
}

// ---- the scene -------------------------------------------------------

// liveStore is the standard live scene: query object 1 crossing the plane,
// 2 shadowing it, 3 and 4 far away, plans covering [0, 10].
func liveStore(t *testing.T) *mod.Store {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for oid, y := range map[int64]float64{1: 0, 2: 1, 3: 50, 4: 100} {
		verts := make([]trajectory.Vertex, 11)
		for i := range verts {
			verts[i] = trajectory.Vertex{X: float64(i), Y: y, T: float64(i)}
		}
		tr, err := trajectory.New(oid, verts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// flipReq is "is object 3 a possible NN of object 1", which flip toggles on
// every ingest — one event per batch, Bool true on odd Seqs.
var flipReq = engine.Request{Kind: engine.KindUQ11, QueryOID: 1, Tb: 0, Te: 10, OID: 3}

// nnReq is "who can be the NN of object 1": [2] in the live scene.
var nnReq = engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10}

// flip steers object 3 next to (even i) or away from (odd i) object 1.
func flip(i int) []mod.Update {
	if i%2 == 0 {
		return []mod.Update{{OID: 3, Verts: []trajectory.Vertex{
			{X: 6, Y: 1, T: 6}, {X: 8, Y: 0.5, T: 8}, {X: 10, Y: 0.5, T: 10},
		}}}
	}
	return []mod.Update{{OID: 3, Verts: []trajectory.Vertex{{X: 6, Y: 80, T: 5.5}, {X: 10, Y: 80, T: 10}}}}
}

// harness binds a case to one codec's world.
type harness struct {
	*testing.T
	world
	client
	flips int
}

func start(t *testing.T, c codec, cfg config) *harness {
	w := c.start(t, liveStore(t), cfg)
	return &harness{T: t, world: w, client: w.dial(cfg.token)}
}

// flipN ingests n more flips, each emitting one flipReq event.
func (h *harness) flipN(n int) {
	h.Helper()
	for ; n > 0; n-- {
		if _, err := h.ingest(flip(h.flips)); err != nil {
			h.Fatalf("flip %d: %v", h.flips, err)
		}
		h.flips++
	}
}

func (h *harness) mustSubscribe(req engine.Request) *session {
	h.Helper()
	s, err := h.subscribe(req)
	if err != nil {
		h.Fatalf("subscribe: %v", err)
	}
	return s
}

// dropAndWait severs a session and waits for the server to notice and
// detach its subscription.
func (h *harness) dropAndWait(s *session) {
	h.Helper()
	s.drop()
	deadline := time.Now().Add(5 * time.Second)
	for !h.core.Detached(s.id) {
		if time.Now().After(deadline) {
			h.Fatalf("subscription %d never detached", s.id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// canon renders an event wall-normalized, so streams compare byte for byte.
func canon(t *testing.T, ev continuous.Event) string {
	t.Helper()
	ev.Explain.Wall, ev.Explain.RefineWall = 0, 0
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// expectStream reads len(want) events off s and requires exactly want.
func (h *harness) expectStream(s *session, want []continuous.Event) {
	h.Helper()
	for i, w := range want {
		got, err := s.next()
		if err != nil {
			h.Fatalf("event %d of %d (want seq %d): %v", i, len(want), w.Seq, err)
		}
		if g, w := canon(h.T, got), canon(h.T, w); g != w {
			h.Fatalf("event %d diverged from the hub\n got: %s\nwant: %s", i, g, w)
		}
	}
}

// sameAnswer compares the answers but not their walls, which differ.
func sameAnswer(a, b engine.Result) bool {
	return a.Kind == b.Kind && a.IsBool == b.IsBool && a.Bool == b.Bool && slices.Equal(a.OIDs, b.OIDs) && len(a.Pairs) == len(b.Pairs)
}

// oracle returns the hub's retained events after fromSeq and its answer.
func (h *harness) oracle(id int64, fromSeq uint64) ([]continuous.Event, engine.Result) {
	h.Helper()
	events, err := h.core.Hub().Replay(id, fromSeq)
	if err != nil {
		h.Fatalf("hub replay(%d, %d): %v", id, fromSeq, err)
	}
	answer, err := h.core.Hub().Answer(id)
	if err != nil {
		h.Fatal(err)
	}
	return events, answer
}

// steppedClock is a manually advanced time source for the detach deadline.
type steppedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *steppedClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *steppedClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// scriptJournal records what the ingest path hands it and fails the
// appends it is told to.
type scriptJournal struct {
	mu       sync.Mutex
	failNext bool
	batches  [][]mod.Update
	applies  int
}

func (j *scriptJournal) Append(updates []mod.Update) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failNext {
		j.failNext = false
		return errors.New("disk full")
	}
	j.batches = append(j.batches, updates)
	return nil
}

func (j *scriptJournal) AfterApply(*mod.Store) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.applies++
	return nil
}

func (j *scriptJournal) failNextAppend() {
	j.mu.Lock()
	j.failNext = true
	j.mu.Unlock()
}

// seen returns the journaled batches and the AfterApply count.
func (j *scriptJournal) seen() ([][]mod.Update, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return slices.Clone(j.batches), j.applies
}

// ---- the table -------------------------------------------------------

var cases = []struct {
	name string
	run  func(t *testing.T, c codec)
}{
	{"stream is exactly the hub's events in seq order", func(t *testing.T, c codec) {
		h := start(t, c, config{})
		s := h.mustSubscribe(flipReq)
		if _, initial := h.oracle(s.id, 0); !sameAnswer(s.answer, initial) || s.answer.Bool {
			t.Fatalf("initial answer %+v, hub has %+v", s.answer, initial)
		}
		h.flipN(4)
		want, _ := h.oracle(s.id, 0)
		if len(want) != 4 {
			t.Fatalf("hub retained %d events for 4 flips", len(want))
		}
		h.expectStream(s, want)
		// An irrelevant far revision emits nothing; the next flip is Seq 5.
		if _, err := h.ingest([]mod.Update{{OID: 4, Verts: []trajectory.Vertex{{X: 7, Y: 99, T: 7}, {X: 10, Y: 99, T: 10}}}}); err != nil {
			t.Fatal(err)
		}
		h.flipN(1)
		if ev, err := s.next(); err != nil || ev.Seq != 5 || ev.SubID != s.id {
			t.Fatalf("event after a silent batch = %+v, %v; want seq 5", ev, err)
		}
	}},

	{"resume from every from_seq yields the same suffix and answer", func(t *testing.T, c codec) {
		h := start(t, c, config{})
		s := h.mustSubscribe(flipReq)
		h.flipN(5)
		all, _ := h.oracle(s.id, 0)
		h.expectStream(s, all)
		for from := uint64(0); from <= 5; from++ {
			h.dropAndWait(s)
			h.flipN(1) // lands while nobody listens
			want, answer := h.oracle(s.id, from)
			var err error
			if s, err = h.resume(s.id, from); err != nil {
				t.Fatalf("resume from %d: %v", from, err)
			}
			if !sameAnswer(s.answer, answer) {
				t.Fatalf("resume from %d: answer %+v, hub has %+v", from, s.answer, answer)
			}
			h.expectStream(s, want)
			// The re-attached stream is live and contiguous.
			h.flipN(1)
			live, _ := h.oracle(s.id, want[len(want)-1].Seq)
			h.expectStream(s, live)
		}
	}},

	{"truncated backlog is a typed event gap", func(t *testing.T, c codec) {
		h := start(t, c, config{})
		s := h.mustSubscribe(flipReq)
		h.dropAndWait(s)
		h.flipN(continuous.DefaultBacklog + 3)
		if _, err := h.resume(s.id, 0); !errors.Is(err, continuous.ErrEventGap) {
			t.Fatalf("resume across a truncated backlog = %v, want ErrEventGap", err)
		}
		// The gap leaves the subscription detached and intact: a resume
		// inside the retained window (seqs 4..Backlog+3) succeeds.
		if !h.core.Detached(s.id) {
			t.Fatal("gap consumed the detached subscription")
		}
		r, err := h.resume(s.id, 3)
		if err != nil {
			t.Fatalf("resume inside the window: %v", err)
		}
		want, _ := h.oracle(s.id, 3)
		h.expectStream(r, want)
	}},

	{"live and unknown subscriptions cannot be resumed", func(t *testing.T, c codec) {
		h := start(t, c, config{})
		s := h.mustSubscribe(flipReq)
		for _, id := range []int64{s.id, s.id + 99} {
			_, err := h.resume(id, 0)
			if err == nil || errors.Is(err, serve.ErrSubExpired) || errors.Is(err, continuous.ErrEventGap) {
				t.Fatalf("resume of %d = %v, want a plain rejection", id, err)
			}
		}
		// The rejected resume did not disturb the owner's stream.
		h.flipN(1)
		if ev, err := s.next(); err != nil || ev.Seq != 1 {
			t.Fatalf("owner's stream after a rejected resume: %+v, %v", ev, err)
		}
	}},

	{"LRU eviction past MaxDetached", func(t *testing.T, c codec) {
		h := start(t, c, config{})
		var ids []int64
		for i := 0; i <= serve.DefaultMaxDetached; i++ {
			s := h.mustSubscribe(flipReq)
			h.dropAndWait(s)
			ids = append(ids, s.id)
		}
		// The eviction unsubscribes just after the last detach lands.
		deadline := time.Now().Add(5 * time.Second)
		for !slices.Equal(h.core.Hub().Subscriptions(), ids[1:]) {
			if time.Now().After(deadline) {
				t.Fatalf("hub holds %v after evicting the oldest of %v", h.core.Hub().Subscriptions(), ids)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if _, err := h.resume(ids[0], 0); err == nil || errors.Is(err, serve.ErrSubExpired) {
			t.Fatalf("resume of the evicted subscription = %v", err)
		}
		if _, err := h.resume(ids[serve.DefaultMaxDetached], 0); err != nil {
			t.Fatalf("resume of a retained subscription: %v", err)
		}
	}},

	{"TTL expiry is typed", func(t *testing.T, c codec) {
		h := start(t, c, config{})
		clock := &steppedClock{t: time.Unix(1_000_000, 0)}
		h.core.SetClock(clock.now)
		s := h.mustSubscribe(flipReq)
		h.dropAndWait(s)

		// Inside the deadline the subscription stays resumable.
		clock.advance(serve.DefaultDetachedTTL / 2)
		r, err := h.resume(s.id, 0)
		if err != nil {
			t.Fatalf("resume inside the deadline: %v", err)
		}
		h.dropAndWait(r)

		// Past it, the next ingest sweeps it out of the hub for real...
		clock.advance(serve.DefaultDetachedTTL)
		h.flipN(1)
		if h.core.Detached(s.id) || len(h.core.Hub().Subscriptions()) != 0 {
			t.Fatalf("subscription survived the deadline sweep: hub %v", h.core.Hub().Subscriptions())
		}
		// ...and a late resume is told so, unlike a never-known ID.
		if _, err := h.resume(s.id, 0); !errors.Is(err, serve.ErrSubExpired) {
			t.Fatalf("resume past the deadline = %v, want ErrSubExpired", err)
		}
		if _, err := h.resume(s.id+99, 0); err == nil || errors.Is(err, serve.ErrSubExpired) {
			t.Fatalf("resume of an unknown subscription = %v", err)
		}
	}},

	{"mid-batch apply failure reports the applied prefix", func(t *testing.T, c codec) {
		h := start(t, c, config{})
		partial, err := h.ingest([]mod.Update{
			{OID: 2, Verts: []trajectory.Vertex{{X: 6, Y: 1.1, T: 6}, {X: 10, Y: 1.1, T: 10}}},
			{OID: 1, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: -5}}}, // stale: precedes the whole plan
			{OID: 4, Verts: []trajectory.Vertex{{X: 7, Y: 99, T: 7}, {X: 10, Y: 99, T: 10}}},
		})
		if err == nil || errors.Is(err, mod.ErrNotFound) {
			t.Fatalf("bad batch member: err = %v", err)
		}
		if len(partial) != 1 || partial[0].OID != 2 || partial[0].ChangedFrom != 5 || (c.name == "line") != (partial[0].Traj != nil) {
			t.Fatalf("partial outcomes = %+v", partial)
		}
		if tr, _ := h.store.Get(4); len(tr.Verts) != 11 {
			t.Fatal("an update after the failing one was applied")
		}
	}},

	{"journal-append failure applies nothing", func(t *testing.T, c codec) {
		j := &scriptJournal{}
		h := start(t, c, config{journal: j})
		s := h.mustSubscribe(flipReq)
		before := h.store.Version()
		j.failNextAppend()
		if applied, err := h.ingest(flip(0)); err == nil || len(applied) != 0 {
			t.Fatalf("ingest over a failing journal = %+v, %v", applied, err)
		}
		if batches, applies := j.seen(); h.store.Version() != before || len(batches) != 0 || applies != 0 {
			t.Fatalf("rejected batch left a trace: version %d→%d, journal %d/%d",
				before, h.store.Version(), len(batches), applies)
		}
		// The journal sees exactly the batches that are applied, in order.
		h.flipN(2)
		if batches, applies := j.seen(); len(batches) != 2 || applies != 2 || batches[1][0].Verts[0].Y != 80 {
			t.Fatalf("journal holds %d batches / %d applies", len(batches), applies)
		}
		if ev, err := s.next(); err != nil || ev.Seq != 1 {
			t.Fatalf("first event after the rejected batch = %+v, %v", ev, err)
		}
	}},

	{"bad token is rejected before any op", func(t *testing.T, c codec) {
		h := start(t, c, config{token: "s3cret"})
		before := h.store.Version()
		for _, token := range []string{"", "wrong"} {
			cl := h.dial(token)
			if _, err := cl.ingest(flip(0)); !errors.Is(err, serve.ErrUnauthorized) {
				t.Fatalf("ingest with token %q = %v, want unauthorized", token, err)
			}
			if _, err := cl.subscribe(flipReq); !errors.Is(err, serve.ErrUnauthorized) {
				t.Fatalf("subscribe with token %q = %v, want unauthorized", token, err)
			}
			if _, err := cl.resume(1, 0); !errors.Is(err, serve.ErrUnauthorized) {
				t.Fatalf("resume with token %q = %v, want unauthorized", token, err)
			}
		}
		if h.store.Version() != before || len(h.core.Hub().Subscriptions()) != 0 {
			t.Fatal("an unauthorized op reached the store or the hub")
		}
		s := h.mustSubscribe(flipReq)
		h.flipN(1)
		if ev, err := s.next(); err != nil || ev.Seq != 1 {
			t.Fatalf("authorized stream: %+v, %v", ev, err)
		}
	}},

	{"retire round trip", func(t *testing.T, c codec) {
		h := start(t, c, config{})
		s := h.mustSubscribe(nnReq)
		if !slices.Equal(s.answer.OIDs, []int64{2}) {
			t.Fatalf("initial answer %+v", s.answer)
		}
		applied, err := h.ingest([]mod.Update{{OID: 2, Retire: true}})
		if err != nil {
			t.Fatalf("retire: %v", err)
		}
		// The line protocol is the shard link and carries the retired plan;
		// the gateway's reply is the outcome alone.
		if a := applied[0]; len(applied) != 1 || !a.Retired || a.Inserted || !math.IsInf(a.ChangedFrom, -1) || a.Traj != nil ||
			(c.name == "line") != (a.Prev != nil) || a.Prev != nil && len(a.Prev.Verts) != 11 {
			t.Fatalf("retire outcome = %+v", applied)
		}
		if _, err := h.store.Get(2); !errors.Is(err, mod.ErrNotFound) {
			t.Fatalf("retired object still stored: %v", err)
		}
		if ev, err := s.next(); err != nil || ev.Seq != 1 || !slices.Equal(ev.Removed, []int64{2}) {
			t.Fatalf("retire event = %+v, %v", ev, err)
		}
		if _, err := h.ingest([]mod.Update{{OID: 2, Retire: true}}); !errors.Is(err, mod.ErrNotFound) {
			t.Fatalf("second retire = %v, want not found", err)
		}
		// The OID is free again: an ordinary two-vertex update re-inserts it.
		applied, err = h.ingest([]mod.Update{{OID: 2, Verts: []trajectory.Vertex{{X: 0, Y: 1, T: 0}, {X: 10, Y: 1, T: 10}}}})
		if err != nil || !applied[0].Inserted {
			t.Fatalf("re-insert = %+v, %v", applied, err)
		}
		if ev, err := s.next(); err != nil || ev.Seq != 2 || !slices.Equal(ev.Added, []int64{2}) {
			t.Fatalf("re-insert event = %+v, %v", ev, err)
		}
	}},
}

// TestErrorCodes: every failure a client can provoke, on both codecs,
// reaches the client with the code the gateway gives it (serve's table)
// and the identity of the sentinel behind it. A batch fails its entries,
// not its siblings.
func TestErrorCodes(t *testing.T) {
	good := engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10}
	badKind := engine.Request{Kind: "NOPE", QueryOID: 1, Tb: 0, Te: 10}
	batch := []struct {
		req  engine.Request
		code string
		is   error
	}{
		{engine.Request{Kind: engine.KindUQ31, QueryOID: 1, Tb: 5, Te: 5}, "bad_window", engine.ErrBadWindow},
		{good, "", nil},
		{badKind, "bad_kind", engine.ErrBadKind},
		{engine.Request{Kind: engine.KindUQ11, QueryOID: 1, OID: 99, Tb: 0, Te: 10}, "unknown_oid", engine.ErrUnknownOID},
	}
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			h := start(t, c, config{})
			check := func(what string, err error, code string, is error) {
				t.Helper()
				if got, _ := serve.Classify(err); err == nil || got != code || !errors.Is(err, is) {
					t.Errorf("%s: %v (code %q), want code %q and errors.Is %v", what, err, got, code, is)
				}
			}
			reqs := make([]engine.Request, len(batch))
			for i, b := range batch {
				reqs[i] = b.req
			}
			results, err := h.batch(reqs)
			if err != nil || len(results) != len(batch) {
				t.Fatalf("batch: %d results, %v", len(results), err)
			}
			for i, b := range batch {
				if b.is == nil {
					if results[i].Err != nil || !slices.Equal(results[i].OIDs, []int64{2}) {
						t.Errorf("batch[%d]: %+v beside failing siblings", i, results[i])
					}
					continue
				}
				check(fmt.Sprintf("batch[%d] %s", i, b.code), results[i].Err, b.code, b.is)
			}
			_, err = h.subscribe(badKind)
			check("subscribe with a bad kind", err, "bad_kind", engine.ErrBadKind)
			check("an unknown subscription ID", h.forget(99), "not_found", serve.ErrUnknownSub)
			check("a malformed request", h.malformed(), "bad_request", serve.ErrBadRequest)
		})
	}
}

func TestConformance(t *testing.T) {
	for _, c := range codecs {
		for _, tc := range cases {
			t.Run(c.name+"/"+tc.name, func(t *testing.T) { tc.run(t, c) })
		}
	}
}
