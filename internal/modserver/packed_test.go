package modserver

// The shard link's packed vertex form: the decimal form is still served
// and answers identically, malformed items are typed failures, frame and
// gather caps count real bytes, a connection's unfinished uploads are
// bounded, and the refine client uploads without probing for a gather it
// knows the server cannot hold.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/serve"
	"repro/internal/simtest"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// arrayTrajs is encodeTrajs in the decimal form an older client sends.
func arrayTrajs(trs []*trajectory.Trajectory) []WireTraj {
	out := make([]WireTraj, len(trs))
	for i, tr := range trs {
		out[i] = WireTraj{OID: tr.OID, Verts: serve.EncodeVerts(tr.Verts)}
	}
	return out
}

// rawPeer speaks the protocol one line at a time.
type rawPeer struct {
	t   *testing.T
	enc *json.Encoder
	sc  *bufio.Scanner
}

func newRawPeer(t *testing.T, conn net.Conn) *rawPeer {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), ClientMaxLine)
	return &rawPeer{t: t, enc: json.NewEncoder(conn), sc: sc}
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return newRawPeer(t, conn)
}

func (p *rawPeer) send(req Request) {
	p.t.Helper()
	if err := p.enc.Encode(req); err != nil {
		p.t.Fatal(err)
	}
}

// call sends one request and returns its reply, a frame stream
// reassembled, with the raw lines it arrived as.
func (p *rawPeer) call(req Request) (Response, string) {
	p.t.Helper()
	p.send(req)
	var (
		acc StreamAccum
		raw strings.Builder
	)
	for p.sc.Scan() {
		raw.Write(p.sc.Bytes())
		raw.WriteByte('\n')
		final, _, err := acc.AddLine(p.sc.Bytes())
		if err != nil {
			p.t.Fatal(err)
		}
		if final != nil {
			return *final, raw.String()
		}
	}
	p.t.Fatalf("connection closed before the reply to %s/%s: %v", req.Op, req.Phase, p.sc.Err())
	return Response{}, ""
}

// TestArrayFormStillServed: every frame that carries a trajectory is
// accepted as decimal triples too — the human ops and older clients — and
// answers exactly what the packed request does; replies are packed either
// way, and an ingest reply's outcomes rebuild to the store's own.
func TestArrayFormStillServed(t *testing.T) {
	store := testStore(t, 60)
	p := dialRaw(t, startTCPServer(t, store, Options{}))
	q, err := store.Get(1)
	if err != nil {
		t.Fatal(err)
	}

	phase := Request{Op: "query", Phase: "bounds", OID: q.OID, Tb: 0, Te: 30, K: 2}
	arr, packed := phase, phase
	arr.Verts, packed.VB = serve.EncodeVerts(q.Verts), serve.PackVerts(q.Verts)
	ra, lineA := p.call(arr)
	_, lineP := p.call(packed)
	if !ra.OK || lineA != lineP {
		t.Fatalf("bounds diverged by request form:\n array  %s packed %s", lineA, lineP)
	}

	arr.Phase, packed.Phase = "survivors", "survivors"
	arr.Bounds, packed.Bounds = ra.Bounds, ra.Bounds
	ra, lineA = p.call(arr)
	_, lineP = p.call(packed)
	if !ra.OK || len(ra.Trajs) == 0 || lineA != lineP {
		t.Fatalf("survivors diverged by request form:\n array  %s packed %s", lineA, lineP)
	}
	for _, wt := range ra.Trajs {
		if wt.Verts != nil || len(wt.VB) == 0 {
			t.Fatalf("survivor %d came back unpacked", wt.OID)
		}
	}

	union := store.All()
	own := store.OIDs()[1:20]
	refine := Request{Op: "query", Phase: "gather", OIDs: own, Request: &engine.Request{Kind: engine.KindUQ41, QueryOID: q.OID, Tb: 0, Te: 30, K: 2}}
	arr, packed = refine, refine
	arr.GatherID, arr.Trajs = "array", arrayTrajs(union)
	packed.GatherID, packed.Trajs = "packed", encodeTrajs(union)
	ra, _ = p.call(arr)
	rp, _ := p.call(packed)
	if !ra.OK || !rp.OK || ra.Answer == nil || rp.Answer == nil || len(rp.Answer.OIDs) == 0 {
		t.Fatalf("gather refine failed: array %+v packed %+v", ra, rp)
	}
	if !slices.Equal(ra.Answer.OIDs, rp.Answer.OIDs) || ra.Answer.Explain.Candidates != rp.Answer.Explain.Candidates {
		t.Fatalf("refine diverged by upload form: array %+v packed %+v", ra.Answer, rp.Answer)
	}

	// Ingest mutates, so each form gets its own copy of the store.
	tags := []string{"ev"}
	updates := []mod.Update{
		{OID: 2, Verts: []trajectory.Vertex{{X: 1, Y: 1, T: 40}, {X: 2, Y: 2, T: 50}}},
		{OID: 900, Verts: []trajectory.Vertex{{X: 0.1, Y: 1.0 / 3, T: 0}, {X: 3, Y: 4, T: 60}}, Tags: &tags},
		{OID: 3, Tags: &tags},
	}
	arrUpd := serve.PackUpdates(updates)
	for i, u := range updates {
		if len(u.Verts) > 0 {
			arrUpd[i].Verts, arrUpd[i].VB = serve.EncodeVerts(u.Verts), nil
		}
	}
	ra, lineA = dialRaw(t, startTCPServer(t, testStore(t, 60), Options{})).call(Request{Op: "ingest", Updates: arrUpd})
	_, lineP = dialRaw(t, startTCPServer(t, testStore(t, 60), Options{})).call(Request{Op: "ingest", Updates: serve.PackUpdates(updates)})
	if !ra.OK || len(ra.Applied) != len(updates) || lineA != lineP {
		t.Fatalf("ingest diverged by request form:\n array  %s packed %s", lineA, lineP)
	}
	// A reply carries only the plans the router cannot rebuild, packed: a
	// revision's superseded plan, no plan for an insert, a flip's standing
	// plan.
	if a := ra.Applied; len(a[0].VB) != 0 || len(a[0].PVB) == 0 || len(a[1].VB)+len(a[1].PVB) != 0 ||
		len(a[2].VB) == 0 || len(a[2].PVB) != 0 || strings.Contains(lineA, `verts"`) {
		t.Fatalf("applied outcomes carry the wrong plans: %s", lineA)
	}
	// Client.Ingest rebuilds the rest: its outcomes are the store's own.
	cli, err := Dial(startTCPServer(t, testStore(t, 60), Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	got, err := cli.Ingest(updates)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testStore(t, 60).ApplyUpdates(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Client.Ingest outcomes differ from the store's\n got: %+v\nwant: %+v", got, want)
	}
}

// TestMalformedVerticesAreBadRequests: an item carrying both vertex forms,
// or a packed length that is not whole vertices, fails its request with
// the bad_request code (serve.ErrBadWire at a client) wherever a
// trajectory can ride, and the connection keeps serving.
func TestMalformedVerticesAreBadRequests(t *testing.T) {
	store := testStore(t, 10)
	p := dialRaw(t, startTCPServer(t, store, Options{}))
	q, _ := store.Get(1)
	both := WireTraj{OID: q.OID, Verts: serve.EncodeVerts(q.Verts), VB: serve.PackVerts(q.Verts)}
	ragged := WireTraj{OID: q.OID, VB: serve.PackVerts(q.Verts)[:25]}
	refine := &engine.Request{Kind: engine.KindUQ31, QueryOID: q.OID, Tb: 0, Te: 30}
	for name, req := range map[string]Request{
		"bounds both":      {Op: "query", Phase: "bounds", OID: q.OID, Verts: both.Verts, VB: both.VB, Tb: 0, Te: 30, K: 1},
		"bounds ragged":    {Op: "query", Phase: "bounds", OID: q.OID, VB: ragged.VB, Tb: 0, Te: 30, K: 1},
		"survivors both":   {Op: "query", Phase: "survivors", OID: q.OID, Verts: both.Verts, VB: both.VB, Tb: 0, Te: 30},
		"survivors ragged": {Op: "query", Phase: "survivors", OID: q.OID, VB: ragged.VB, Tb: 0, Te: 30},
		"gather both":      {Op: "query", Phase: "gather", GatherID: "b", Trajs: []WireTraj{both}, Request: refine},
		"gather ragged":    {Op: "query", Phase: "gather", GatherID: "r", Trajs: []WireTraj{ragged}, Request: refine},
		"ingest both":      {Op: "ingest", Updates: []WireTraj{both}},
		"ingest ragged":    {Op: "ingest", Updates: []WireTraj{ragged}},
		"insert both":      {Op: "insert", OID: 77, Verts: both.Verts, VB: both.VB},
	} {
		resp, _ := p.call(req)
		if resp.OK || resp.Code != codeBadRequest || !errors.Is(respError(resp), serve.ErrBadWire) {
			t.Errorf("%s: reply %+v, want a bad_request failure", name, resp)
		}
	}
	if resp, _ := p.call(Request{Op: "count"}); !resp.OK || resp.Count != store.Len() {
		t.Fatalf("connection or store disturbed by rejected frames: %+v", resp)
	}
}

// countConn counts the writes a client makes: the encoder writes each
// request line at once, so writes are lines sent.
type countConn struct {
	net.Conn
	writes *int
}

func (c countConn) Write(p []byte) (int, error) {
	*c.writes++
	return c.Conn.Write(p)
}

// countingClient dials addr and learns the line cap, so that what is
// counted afterwards is refine traffic alone.
func countingClient(t *testing.T, addr string) (*Client, *int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	writes := new(int)
	c := NewClient(countConn{conn, writes})
	t.Cleanup(func() { c.Close() })
	if _, err := c.Spec(); err != nil {
		t.Fatal(err)
	}
	*writes = 0
	return c, writes
}

// refineFixture is a union (a whole test store), one pretend shard's share
// of it, and the local answer to check wire refines against.
type refineFixture struct {
	union []*trajectory.Trajectory
	ownA  []int64
	req   engine.Request
	wantA []int64
}

func newRefineFixture(t *testing.T, n int) refineFixture {
	t.Helper()
	store := testStore(t, n)
	oids := store.OIDs()
	fx := refineFixture{
		union: store.All(), ownA: oids[1 : n/2],
		req: engine.Request{Kind: engine.KindUQ31, QueryOID: oids[0], Tb: 0, Te: 30},
	}
	want, err := engine.New(1).DoRestricted(context.Background(), store, fx.req, fx.ownA)
	if err != nil {
		t.Fatal(err)
	}
	fx.wantA = want.OIDs
	return fx
}

// TestUploadFillsLine: the upload frames are sized from exact byte
// counts. A union whose single-frame line is exactly the server's cap goes
// as one frame — and the server takes it, so it is not a byte over — and
// against a cap one byte smaller it goes as two.
func TestUploadFillsLine(t *testing.T) {
	fx := newRefineFixture(t, 30)
	line, err := json.Marshal(Request{
		Op: "query", Phase: "gather", GatherID: "g", Trajs: encodeTrajs(fx.union),
		OIDs: fx.ownA, Request: &fx.req,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact := len(line) + 1 // the newline
	for _, tc := range []struct{ cap, frames int }{{exact, 1}, {exact - 1, 2}} {
		c, writes := countingClient(t, startTCPServer(t, testStore(t, 3), Options{MaxLineBytes: tc.cap}))
		got, err := c.ShardRefine("g", fx.union, fx.ownA, fx.req, 0)
		if err != nil {
			t.Fatalf("cap %d: %v", tc.cap, err)
		}
		if *writes != tc.frames || !slices.Equal(got.OIDs, fx.wantA) {
			t.Fatalf("cap %d (a one-frame upload is %d bytes): %d frames, want %d; answer %v, want %v",
				tc.cap, exact, *writes, tc.frames, got.OIDs, fx.wantA)
		}
	}
}

// TestGatherCapCountsPackedBytes: trajWireBytes is the encoded size of a
// packed trajectory to the byte, so MaxGatherBytes bites at the bytes a
// packed upload really is: the exact size passes, one byte less does not.
func TestGatherCapCountsPackedBytes(t *testing.T) {
	fx := newRefineFixture(t, 30)
	real := 0
	for _, wt := range encodeTrajs(fx.union) {
		elem, err := json.Marshal(wt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := trajWireBytes(wt), len(elem)+1; got != want {
			t.Fatalf("trajectory %d priced at %d bytes, encodes to %d with its separator", wt.OID, got, want)
		}
		real += len(elem) + 1
	}
	for _, tc := range []struct {
		cap int
		ok  bool
	}{{real, true}, {real - 1, false}} {
		c, _ := countingClient(t, startTCPServer(t, testStore(t, 3), Options{MaxLineBytes: 4096, MaxGatherBytes: tc.cap}))
		_, err := c.ShardRefine("g", fx.union, fx.ownA, fx.req, 0)
		if (err == nil) != tc.ok {
			t.Fatalf("gather cap %d on a %d-byte packed upload: err = %v, want accepted=%v", tc.cap, real, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("gather cap %d: unexpected failure %v", tc.cap, err)
		}
	}
}

// TestShardRefineSkipsCertainMiss: a gather ID this connection never
// uploaded is uploaded without a probe (one round trip, not two), one it
// did upload is refined by ID alone, the probe-then-upload fallback
// survives for an ID the server no longer holds, and an upload that
// failed is not taken for cached.
func TestShardRefineSkipsCertainMiss(t *testing.T) {
	fx := newRefineFixture(t, 30)
	c, writes := countingClient(t, startTCPServer(t, testStore(t, 3), Options{}))
	step := func(name, id string, union []*trajectory.Trajectory, want int) {
		t.Helper()
		*writes = 0
		got, err := c.ShardRefine(id, union, fx.ownA, fx.req, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if *writes != want || !slices.Equal(got.OIDs, fx.wantA) {
			t.Fatalf("%s: %d round trips, want %d; answer %v, want %v", name, *writes, want, got.OIDs, fx.wantA)
		}
	}
	step("fresh ID uploads straight away", "g1", fx.union, 1)
	step("uploaded ID refines by ID alone", "g1", nil, 1)
	step("second ID", "g2", fx.union, 1)
	step("third ID pushes g1 out of both caches", "g3", fx.union, 1)
	step("forgotten ID uploads again without a probe", "g1", fx.union, 1)
	c.uploaded = append(c.uploaded, "evicted") // the server never saw it
	step("remembered ID the server lost: probe, then upload", "evicted", fx.union, 2)

	bad := fx.req
	bad.Kind = engine.KindUQ11 // not a whole-MOD filter: the refine in the final frame fails
	if _, err := c.ShardRefine("g9", fx.union, fx.ownA, bad, 0); err == nil {
		t.Fatal("a single-object refine was accepted")
	}
	if slices.Contains(c.uploaded, "g9") {
		t.Fatal("a failed upload was remembered as cached")
	}
	step("failed upload is uploaded again", "g9", fx.union, 1)
}

// TestPendingGathersBounded: unfinished uploads are held per gather ID
// until their final frame, so a peer may open only gatherCacheCap of them;
// one more gets a coded parting reply and the connection closes. Finishing
// one frees its slot.
func TestPendingGathersBounded(t *testing.T) {
	store := testStore(t, 5)
	cli, done := pipeServer(t, store, Options{})
	p := newRawPeer(t, cli)
	chunk := encodeTrajs(store.All()[:1])
	open := func(id string) {
		p.send(Request{Op: "query", Phase: "gather", GatherID: id, More: true, Trajs: chunk})
	}
	open("g0")
	if resp, _ := p.call(Request{Op: "query", Phase: "gather", GatherID: "g0"}); !resp.OK {
		t.Fatalf("finishing an upload: %+v", resp)
	}
	for i := 1; i <= gatherCacheCap; i++ {
		open(fmt.Sprintf("g%d", i))
	}
	open("g1") // a further frame of an open upload is not a new one
	if resp, _ := p.call(Request{Op: "ping"}); !resp.OK {
		t.Fatalf("connection closed at the limit, not past it: %+v", resp)
	}
	open("one-too-many")
	if !p.sc.Scan() {
		t.Fatalf("no parting reply: %v", p.sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(p.sc.Bytes(), &resp); err != nil || resp.OK || resp.Code != codeGatherLimit {
		t.Fatalf("parting reply %s (%v), want code %s", p.sc.Bytes(), err, codeGatherLimit)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("connection stayed open past the pending-gather limit")
	}
}

// FuzzShardFrame: arbitrary request and reply lines through the frame
// decoders never panic, and a trajectory they accept is a valid one that
// survives being packed and decoded again.
func FuzzShardFrame(f *testing.F) {
	two := []trajectory.Vertex{{X: 0.5, Y: -1, T: 0}, {X: 2, Y: 3, T: 9}}
	wt := WireTraj{OID: 4, VB: serve.PackVerts(two)}
	tags := []string{"ev"}
	for _, v := range []any{
		Request{Op: "query", Phase: "gather", GatherID: "g", More: true, Trajs: []WireTraj{wt}},
		Request{Op: "query", Phase: "gather", GatherID: "g", Trajs: arrayTrajs([]*trajectory.Trajectory{{OID: 4, Verts: two}})},
		Request{Op: "query", Phase: "bounds", OID: 4, VB: wt.VB, Verts: serve.EncodeVerts(two), Te: 9, K: 1},
		Request{Op: "query", Phase: "survivors", OID: 4, VB: wt.VB[:31], Te: 9, Bounds: []float64{-1, 2}},
		Request{Op: "ingest", Updates: []WireTraj{wt, {OID: 5, Tags: &tags}, {OID: 6, Retire: true}}},
		Response{OK: true, More: true, Trajs: []WireTraj{wt}},
		Response{OK: true, Applied: []WireApplied{{OID: 4, ChangedFrom: 3, VB: wt.VB, PVB: wt.VB}, {OID: 5, TagsOnly: true, TagsChanged: true, Tags: tags}}},
	} {
		line, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"op":"query","phase":"gather","trajs":[{"oid":1,"vb":"AAAA"}]}`))
	f.Add([]byte(`{"ok":true,"applied":[{"oid":1,"pvb":"not base64"}]}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var (
			req  Request
			resp Response
		)
		if json.Unmarshal(line, &req) == nil {
			_, _ = wireQuery(req)
			_, _ = serve.DecodeUpdates(req.Updates, true)
			_, _ = serve.DecodeUpdates(req.Updates, false)
			checkDecodedTrajs(t, req.Trajs)
		}
		if json.Unmarshal(line, &resp) == nil {
			_, _ = serve.DecodeApplied(resp.Applied, nil)
			checkDecodedTrajs(t, resp.Trajs)
		}
	})
}

func checkDecodedTrajs(t *testing.T, wts []WireTraj) {
	for _, wt := range wts {
		if trajWireBytes(wt) <= 0 {
			t.Fatalf("trajectory %d priced at %d bytes", wt.OID, trajWireBytes(wt))
		}
	}
	trs, err := decodeTrajs(wts)
	if err != nil {
		return
	}
	for _, tr := range trs {
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid trajectory: %v", err)
		}
	}
	back, err := decodeTrajs(encodeTrajs(trs))
	if err != nil || len(back) != len(trs) {
		t.Fatalf("packed round trip: %d of %d trajectories (%v)", len(back), len(trs), err)
	}
	for i, tr := range trs {
		if back[i].OID != tr.OID || !slices.Equal(back[i].Verts, tr.Verts) {
			t.Fatalf("packed round trip changed trajectory %d", tr.OID)
		}
	}
}

// benchUnion is a gathered union of the size the benchmark's sharded_wire
// workload refines against (95 objects), cut from the same generator.
func benchUnion(b *testing.B) []*trajectory.Trajectory {
	trs, err := workload.Generate(workload.DefaultConfig(2009), 95)
	if err != nil {
		b.Fatal(err)
	}
	return trs
}

var benchForms = []struct {
	name   string
	encode func([]*trajectory.Trajectory) []WireTraj
}{{"array", arrayTrajs}, {"packed", encodeTrajs}}

// BenchmarkShardFrameEncode: flattening and marshalling one gather upload
// frame, in the decimal form the shard link used to carry and in the
// packed one. B/op of throughput is the frame's size on the wire.
func BenchmarkShardFrameEncode(b *testing.B) {
	union := benchUnion(b)
	for _, form := range benchForms {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				line, err := json.Marshal(Request{Op: "query", Phase: "gather", GatherID: "g", Trajs: form.encode(union)})
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(line)))
			}
		})
	}
}

// BenchmarkShardFrameDecode: the receiving half — unmarshal the line and
// rebuild validated trajectories.
func BenchmarkShardFrameDecode(b *testing.B) {
	union := benchUnion(b)
	for _, form := range benchForms {
		line, err := json.Marshal(Request{Op: "query", Phase: "gather", GatherID: "g", Trajs: form.encode(union)})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			for b.Loop() {
				var req Request
				if err := json.Unmarshal(line, &req); err != nil {
					b.Fatal(err)
				}
				if _, err := decodeTrajs(req.Trajs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzAppliedReplyFastPath: on any line, serve.ParseAppliedReply either
// declines or reads the Response encoding/json reads — the same value,
// and the same bytes when both are encoded again. The committed corpus
// holds the edges: exponents, -0, 1e309, a 1.0 OID, escapes, case-variant
// and duplicate keys, null and empty lists, an empty or broken base64
// plan, a failed reply, an event, whitespace and trailing bytes.
func FuzzAppliedReplyFastPath(f *testing.F) {
	applied, _ := wireBatch(f, 60, 6, 2)
	line, err := json.Marshal(Response{OK: true, Applied: serve.EncodeApplied(applied)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(line)
	f.Fuzz(func(t *testing.T, line []byte) {
		applied, ok := serve.ParseAppliedReply(line)
		if !ok {
			return
		}
		var want Response
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("the fast path read a line encoding/json refuses (%v): %q", err, line)
		}
		got := Response{OK: true, Applied: applied}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the fast path read %q as\n%+v\nencoding/json as\n%+v", line, got, want)
		}
		g, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := json.Marshal(want); !slices.Equal(g, w) {
			t.Fatalf("the fast path read %q as %s, encoding/json as %s", line, g, w)
		}
	})
}

// wireBatch applies one batch of revisions plan revisions and flips tag
// flips to a fresh n-object world (seed 2009) and returns the store's
// outcomes with the batch.
func wireBatch(tb testing.TB, n, revisions, flips int) ([]mod.Applied, []mod.Update) {
	w, err := simtest.NewWorld(simtest.Config{Seed: 2009, N: n, Held: 4, R: 0.5, Steps: 272, PerStep: revisions})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := w.InitialStore()
	if err != nil {
		tb.Fatal(err)
	}
	ups, err := w.StepSized(revisions, flips, 0)
	if err != nil {
		tb.Fatal(err)
	}
	applied, err := st.ApplyUpdates(ups)
	if err != nil {
		tb.Fatal(err)
	}
	return applied, ups
}

// BenchmarkAppliedReplyDecode: what Client.Ingest does with a shard's
// reply to a 240-update batch shaped like the sharded_wire benchmark
// workload's (200 revisions and 40 tag flips over N = 3 000): read the
// line, by the fast path or by encoding/json, and rebuild the outcomes.
// B/op of throughput is the line's size.
func BenchmarkAppliedReplyDecode(b *testing.B) {
	applied, ups := wireBatch(b, 3000, 200, 40)
	line, err := json.Marshal(Response{OK: true, Applied: serve.EncodeApplied(applied)})
	if err != nil {
		b.Fatal(err)
	}
	for _, form := range []struct {
		name string
		read func([]byte) ([]WireApplied, bool)
	}{
		{"fast", serve.ParseAppliedReply},
		{"encoding-json", func(line []byte) ([]WireApplied, bool) {
			var resp Response
			err := json.Unmarshal(line, &resp)
			return resp.Applied, err == nil
		}},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			for b.Loop() {
				wire, ok := form.read(line)
				if !ok {
					b.Fatal("reply not read")
				}
				if _, err := serve.DecodeApplied(wire, ups); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
