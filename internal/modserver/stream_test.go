package modserver

// Streaming-protocol tests: chunked frame reassembly, mid-stream
// disconnects, the slow-reader write deadline, and the refusal of the
// refine phases a shard no longer serves. net.Pipe stands in for TCP
// where the test needs writes to block deterministically.

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/serve"
	"repro/internal/trajectory"
)

// unbounded is the survivors phase's keep-everything bounds for q over
// [tb, te]: +Inf (-1 on the wire) on every slice.
func unbounded(q *trajectory.Trajectory, tb, te float64) []float64 {
	bs := make([]float64, len(prune.SliceCuts(q, tb, te))-1)
	for i := range bs {
		bs[i] = math.Inf(1)
	}
	return bs
}

// survivorsLine is the raw request line of a survivors phase over [0, 30]
// for the store's first object with all-unbounded bounds: a stream of
// every other object, the reply the framing tests cut into frames.
func survivorsLine(t *testing.T, store *mod.Store) []byte {
	t.Helper()
	q := store.All()[0]
	line, err := json.Marshal(Request{Op: "query", Phase: "survivors", OID: q.OID, VB: serve.PackVerts(q.Verts), Tb: 0, Te: 30, Bounds: encodeBounds(unbounded(q, 0, 30))})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// TestStreamedAllChunked: under a tiny line cap a survivors phase with
// all-unbounded bounds splits into many frames; the client reassembles
// every object but the query.
func TestStreamedAllChunked(t *testing.T) {
	store := testStore(t, 60)
	addr := startTCPServer(t, store, Options{MaxLineBytes: 4096})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := store.All()[0]
	trs, _, err := c.ShardSurvivors(q, 0, 30, unbounded(q, 0, 30), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, tr := range trs {
		got = append(got, tr.OID)
	}
	slices.Sort(got)
	if want := store.OIDs()[1:]; !slices.Equal(got, want) {
		t.Fatalf("reassembled %d OIDs, want %d", len(got), len(want))
	}
}

// TestStreamFraming: on the raw wire, the same request yields more than
// one frame, every line respects the cap, intermediate frames carry
// more=true, and only the last frame drops it.
func TestStreamFraming(t *testing.T) {
	const cap = 4096
	store := testStore(t, 60)
	addr := startTCPServer(t, store, Options{MaxLineBytes: cap})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(survivorsLine(t, store)); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), ClientMaxLine)
	frames, moreFrames := 0, 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) > cap {
			t.Fatalf("frame %d is %d bytes, cap %d", frames, len(line), cap)
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("frame %d: %s", frames, resp.Error)
		}
		frames++
		if !resp.More {
			break
		}
		moreFrames++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if moreFrames == 0 {
		t.Fatalf("expected a multi-frame stream, got %d frames", frames)
	}
}

// pipeServer runs one handler over a net.Pipe so writes block until the
// test reads — the deterministic stand-in for a slow TCP peer.
func pipeServer(t *testing.T, store *mod.Store, o Options, writeTimeout time.Duration) (net.Conn, chan struct{}) {
	t.Helper()
	srv := NewServerWith(store, engine.New(1), o)
	srv.writeTimeout = writeTimeout
	cli, ours := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handle(ours)
	}()
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, done
}

// TestStreamMidDisconnect: a client that vanishes mid-stream unwinds the
// handler promptly instead of leaking it.
func TestStreamMidDisconnect(t *testing.T) {
	store := testStore(t, 60)
	cli, done := pipeServer(t, store, Options{MaxLineBytes: 2048}, 200*time.Millisecond)
	if _, err := cli.Write(survivorsLine(t, store)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(cli)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not unwind after a mid-stream disconnect")
	}
}

// TestStreamSlowReaderSevered: a reader that accepts the first frame and
// then stalls is severed by the per-frame write deadline — a streamed
// reply cannot pin the connection goroutine behind a full buffer.
func TestStreamSlowReaderSevered(t *testing.T) {
	store := testStore(t, 60)
	cli, done := pipeServer(t, store, Options{MaxLineBytes: 2048}, 150*time.Millisecond)
	if _, err := cli.Write(survivorsLine(t, store)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(cli)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	// Stop reading. The server's next frame write must hit the deadline.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server kept a stalled mid-stream reader past the write deadline")
	}
}

// TestOldRefineFramesRejected: the upload and refine frames of the shard
// refine protocol a shard no longer serves — a more:true gather chunk, a
// final gather and a refine — each get one "unknown query phase" reply,
// and the connection keeps serving. A server that swallows a frame fails
// the test at the read deadline instead of hanging it.
func TestOldRefineFramesRejected(t *testing.T) {
	store := testStore(t, 10)
	conn, err := net.Dial("tcp", startTCPServer(t, store, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	p := newRawPeer(t, conn)
	q := store.All()[0]
	chunk := fmt.Sprintf(`[{"oid":%d,"vb":%q}]`, q.OID, base64.StdEncoding.EncodeToString(serve.PackVerts(q.Verts)))
	request := fmt.Sprintf(`{"kind":"UQ31","query_oid":%d,"tb":0,"te":30}`, q.OID)
	for _, line := range []string{
		`{"op":"query","phase":"gather","gather_id":"g","more":true,"trajs":` + chunk + `}`,
		`{"op":"query","phase":"gather","gather_id":"g","trajs":` + chunk + `,"oids":[2],"request":` + request + `}`,
		`{"op":"query","phase":"refine","gather_id":"g","oids":[2],"request":` + request + `}`,
	} {
		p.send(json.RawMessage(line))
		if !p.sc.Scan() {
			t.Fatalf("no reply to %s: %v", line, p.sc.Err())
		}
		var resp Response
		if err := json.Unmarshal(p.sc.Bytes(), &resp); err != nil || resp.OK || !strings.Contains(resp.Error, "unknown query phase") {
			t.Fatalf("reply to %s: %s (%v), want one unknown query phase error", line, p.sc.Bytes(), err)
		}
	}
	if resp, _ := p.call(Request{Op: "ping"}); !resp.OK {
		t.Fatalf("ping after the refused frames: %+v", resp)
	}
}

// FuzzStreamAccum: the incremental frame decoder must never panic, must
// fold every accumulated chunk into the final response, and must reject
// input after the stream completes.
func FuzzStreamAccum(f *testing.F) {
	f.Add([]byte("{\"ok\":true,\"more\":true,\"trajs\":[{\"oid\":1,\"verts\":[[0,0,0],[1,1,1]]}]}\n{\"ok\":true}"))
	f.Add([]byte("{\"ok\":false,\"error\":\"boom\"}"))
	f.Add([]byte("{\"ok\":true,\"event\":{\"sub_id\":3}}\n{\"ok\":true,\"trajs\":[]}"))
	f.Add([]byte("not json at all"))
	f.Add([]byte("{\"ok\":true,\"more\":true}\n{\"ok\":true,\"more\":true}\n{\"ok\":true,\"stats\":{}}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var acc StreamAccum
		accumulated := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			final, ev, err := acc.AddLine(line)
			if err != nil {
				continue
			}
			if ev != nil {
				continue
			}
			if final == nil {
				var r Response
				if json.Unmarshal(line, &r) == nil {
					accumulated += len(r.Trajs)
				}
				continue
			}
			if final.OK && len(final.Trajs) < accumulated {
				t.Fatalf("final frame folded %d trajs, accumulated %d", len(final.Trajs), accumulated)
			}
			if _, _, err := acc.AddLine([]byte("{\"ok\":true}")); err == nil {
				t.Fatal("AddLine accepted input after the final frame")
			}
			break
		}
	})
}
