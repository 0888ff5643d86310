package modserver

// The shard link's packed vertex form: the decimal form is still served
// and answers identically, malformed items are typed failures, and the
// frame decoders accept only valid trajectories.

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mod"
	"repro/internal/prune"
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

func (p *rawPeer) send(req any) {
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
	cli, err := DialWith(startTCPServer(t, testStore(t, 60), Options{}), DialOptions{})
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
	for name, req := range map[string]Request{
		"bounds both":      {Op: "query", Phase: "bounds", OID: q.OID, Verts: both.Verts, VB: both.VB, Tb: 0, Te: 30, K: 1},
		"bounds ragged":    {Op: "query", Phase: "bounds", OID: q.OID, VB: ragged.VB, Tb: 0, Te: 30, K: 1},
		"survivors both":   {Op: "query", Phase: "survivors", OID: q.OID, Verts: both.Verts, VB: both.VB, Tb: 0, Te: 30},
		"survivors ragged": {Op: "query", Phase: "survivors", OID: q.OID, VB: ragged.VB, Tb: 0, Te: 30},
		"ingest both":      {Op: "ingest", Updates: []WireTraj{both}},
		"ingest ragged":    {Op: "ingest", Updates: []WireTraj{ragged}},
		"insert both":      {Op: "insert", OID: 77, Verts: both.Verts, VB: both.VB},
	} {
		resp, _ := p.call(req)
		if resp.OK || resp.Code != "bad_request" || !errors.Is(serve.Rebuild(resp.Code, resp.Error), serve.ErrBadWire) {
			t.Errorf("%s: reply %+v, want a bad_request failure", name, resp)
		}
	}
	if resp, _ := p.call(Request{Op: "count"}); !resp.OK || resp.Count != store.Len() {
		t.Fatalf("connection or store disturbed by rejected frames: %+v", resp)
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
		Request{Op: "query", Phase: "bounds", OID: 4, VB: wt.VB, Verts: serve.EncodeVerts(two), Te: 9, K: 1},
		Request{Op: "query", Phase: "survivors", OID: 4, VB: wt.VB[:31], Te: 9, Bounds: []float64{-1, 2}},
		Request{Op: "ingest", Updates: []WireTraj{wt, {OID: 5, Tags: &tags}, {OID: 6, Retire: true}}},
		Response{OK: true, More: true, Trajs: []WireTraj{wt}},
		Response{OK: true, Trajs: arrayTrajs([]*trajectory.Trajectory{{OID: 4, Verts: two}}), Stats: &prune.Stats{Candidates: 1, Survivors: 1}},
		Response{OK: true, Applied: []WireApplied{{OID: 4, ChangedFrom: 3, VB: wt.VB, PVB: wt.VB}, {OID: 5, TagsOnly: true, TagsChanged: true, Tags: tags}}},
	} {
		line, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"ok":true,"more":true,"trajs":[{"oid":1,"vb":"AAAA"}]}`))
	// A retired gather upload: still a line a peer may send.
	f.Add([]byte(`{"op":"query","phase":"gather","gather_id":"g","trajs":[{"oid":1,"vb":"AAAA"}]}`))
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
		}
		if json.Unmarshal(line, &resp) == nil {
			_, _ = serve.DecodeApplied(resp.Applied, nil)
			checkDecodedTrajs(t, resp.Trajs)
		}
	})
}

func checkDecodedTrajs(t *testing.T, wts []WireTraj) {
	for _, wt := range wts {
		// A packed element, the only form a survivors frame carries, is
		// priced at its exact encoded size with its separator.
		if len(wt.Verts) > 0 || len(wt.VB) == 0 || wt.Tags != nil || wt.Retire {
			if trajWireBytes(wt) <= 0 {
				t.Fatalf("trajectory %d priced at %d bytes", wt.OID, trajWireBytes(wt))
			}
			continue
		}
		if line, err := json.Marshal(wt); err != nil || trajWireBytes(wt) != len(line)+1 {
			t.Fatalf("trajectory %d priced at %d bytes, encodes to %d+1 (%v)", wt.OID, trajWireBytes(wt), len(line), err)
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

// benchUnion is a survivor set of the size the benchmark's sharded_wire
// workload gathers (95 objects), cut from the same generator.
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

// BenchmarkShardFrameEncode: flattening and marshalling one survivors
// reply frame, in the decimal form the shard link used to carry and in the
// packed one. B/op of throughput is the frame's size on the wire.
func BenchmarkShardFrameEncode(b *testing.B) {
	union := benchUnion(b)
	for _, form := range benchForms {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				line, err := json.Marshal(Response{OK: true, Trajs: form.encode(union)})
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(line)))
			}
		})
	}
}

// BenchmarkShardFrameDecode: the receiving half — read the frame as the
// client's StreamAccum does and rebuild validated trajectories.
func BenchmarkShardFrameDecode(b *testing.B) {
	union := benchUnion(b)
	for _, form := range benchForms {
		line, err := json.Marshal(Response{OK: true, Trajs: form.encode(union)})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			for b.Loop() {
				var acc StreamAccum
				resp, _, err := acc.AddLine(line)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := decodeTrajs(resp.Trajs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzSurvivorsFrameFastPath: on any line, serve.ParseSurvivorsFrame
// either declines or reads the Response encoding/json reads — the same
// value, and the same bytes when both are encoded again. The seeds hold
// the edges: a more frame, a final frame with stats, an empty and an
// absent list, the array form, an empty or broken base64 plan, a 1.0 OID,
// escapes, case-variant and duplicate keys, null, a failed reply, an
// event, whitespace and trailing bytes.
func FuzzSurvivorsFrameFastPath(f *testing.F) {
	trs, err := workload.Generate(workload.DefaultConfig(2009), 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, resp := range []Response{
		{OK: true, Trajs: encodeTrajs(trs), More: true},
		{OK: true, Trajs: encodeTrajs(trs[:1]), Stats: &prune.Stats{Candidates: 59, Survivors: 3, Slices: 32, Probes: 256}},
		{OK: true, Trajs: arrayTrajs(trs[:1])},
	} {
		line, err := json.Marshal(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	for _, line := range []string{
		`{"ok":true,"trajs":[]}`,
		`{"ok":true}`,
		`{"ok":true,"trajs":[{"oid":1,"vb":""}],"more":false}`,
		`{"ok":true,"trajs":[{"oid":1,"vb":"AAE="}]}`,
		`{"ok":true,"trajs":[{"oid":1,"vb":"!!"}]}`,
		`{"ok":true,"trajs":[{"oid":1.0,"vb":""}]}`,
		`{"ok":true,"trajs":[{"oid":1,"vb":"\u0041AAA"}]}`,
		`{"ok":true,"Trajs":[{"oid":1}]}`,
		`{"ok":true,"trajs":[{"oid":1,"oid":2}]}`,
		`{"ok":true,"trajs":null}`,
		`{"ok":true,"trajs":[],"stats":{"candidates":1,"survivors":1,"slices":1,"probes":1,"probes":2}}`,
		`{"ok":true,"trajs":[],"stats":{"candidates":1e2}}`,
		`{"ok":false,"error":"modserver: unknown query phase","code":"bad_request"}`,
		`{"ok":true,"event":{"sub_id":1,"seq":2}}`,
		`{"ok": true,"trajs":[]}`,
		"{\"ok\":true,\"trajs\":[]}\n",
		`{"ok":true,"trajs":[]} {}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		trajs, more, st, ok := serve.ParseSurvivorsFrame(line)
		if !ok {
			return
		}
		var want Response
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("the fast path read a line encoding/json refuses (%v): %q", err, line)
		}
		got := Response{OK: true, Trajs: trajs, More: more, Stats: st}
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
