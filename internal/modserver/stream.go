// Streamed replies of the wire protocol: the server's survivors frame
// chunking and the client's stream reassembly (StreamAccum). See the
// package comment for the frame grammar.
package modserver

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"strconv"

	"repro/internal/continuous"
	"repro/internal/prune"
	"repro/internal/serve"
	"repro/internal/textidx"
)

// trajWireBytes is one packed trajectory's encoded size as an element of a
// trajs array, separator included, so survivors frames fill the line cap.
func trajWireBytes(wt WireTraj) int {
	var digits [20]byte
	return len(`{"oid":,"vb":""},`) + len(strconv.AppendInt(digits[:0], wt.OID, 10)) +
		base64.StdEncoding.EncodedLen(len(wt.VB))
}

// chunkTrajs splits a trajectory set into frames whose encoded size fits
// the budget, always placing at least one trajectory per frame. An empty
// set yields one empty frame so every reply has a final frame.
func chunkTrajs(wts []WireTraj, budget int) [][]WireTraj {
	var (
		out  [][]WireTraj
		cur  []WireTraj
		used int
	)
	for _, wt := range wts {
		sz := trajWireBytes(wt)
		if len(cur) > 0 && used+sz > budget {
			out = append(out, cur)
			cur, used = nil, 0
		}
		cur = append(cur, wt)
		used += sz
	}
	return append(out, cur)
}

// streamSurvivors evaluates the survivors phase and ships the set as
// incremental frames sized to the server's own line cap, so one reply
// never needs an encode buffer larger than a request line. A set that
// fits one frame goes as a classic single-line reply (no write deadline —
// the pre-streaming behavior); multi-frame streams apply the write
// deadline per frame (sendEvent), so a reader that stalls mid-stream is
// severed at the next frame instead of pinning the connection goroutine on
// a full TCP buffer. It reports false when a write failed and the
// connection must close (a half-sent stream cannot be resynchronized);
// error outcomes are ordinary single-line replies.
func (s *Server) streamSurvivors(req Request, cs *connState) bool {
	q, err := wireQuery(req)
	if err != nil {
		return cs.send(fail(err)) == nil
	}
	ctx, cancel := phaseCtx(req)
	trs, st, err := prune.SurvivorsWithBoundsWhere(ctx, s.store, q, req.Tb, req.Te, decodeBounds(req.Bounds), req.Where)
	cancel()
	if err != nil {
		return cs.send(fail(err)) == nil
	}
	// 256: the reply line's fixed keys, the final frame's stats, the newline.
	frames := chunkTrajs(encodeTrajs(trs), s.maxLine-256)
	last := len(frames) - 1
	if last == 0 {
		return cs.send(Response{OK: true, Trajs: frames[0], Stats: &st}) == nil
	}
	for _, chunk := range frames[:last] {
		if cs.sendEvent(Response{OK: true, More: true, Trajs: chunk}) != nil {
			return false
		}
	}
	return cs.sendEvent(Response{OK: true, Trajs: frames[last], Stats: &st}) == nil
}

// StreamAccum incrementally reassembles a streamed reply from raw
// response lines. Feed each line to AddLine; chunks accumulate until the
// final (non-more) frame arrives, which is returned with the full
// trajectory set folded in. Event lines pass through untouched. A
// survivors frame is read by serve's strict reader; anything it declines
// (an error, an event, any other shape) by encoding/json.
type StreamAccum struct {
	trajs []WireTraj
	done  bool
}

// AddLine consumes one response line. It returns the assembled final
// response once the stream completes, an asynchronous subscription event
// if the line was one, or neither for an intermediate frame.
func (a *StreamAccum) AddLine(line []byte) (*Response, *continuous.Event, error) {
	if a.done {
		return nil, nil, errors.New("modserver: stream already complete")
	}
	var resp Response
	if trajs, more, st, ok := serve.ParseSurvivorsFrame(line); ok {
		resp = Response{OK: true, Trajs: trajs, More: more, Stats: st}
	} else if err := json.Unmarshal(line, &resp); err != nil {
		return nil, nil, err
	}
	if resp.Event != nil {
		return nil, resp.Event, nil
	}
	if resp.OK && resp.More {
		a.trajs = append(a.trajs, resp.Trajs...)
		return nil, nil, nil
	}
	a.done = true
	resp.More = false
	if len(a.trajs) > 0 {
		resp.Trajs = append(a.trajs, resp.Trajs...)
	}
	return &resp, nil, nil
}

// ShardOIDs lists the server store's OIDs (sorted) whose tags satisfy
// where (nil means all) — the union step of the per-query-object
// all-pairs/reverse exchange.
func (c *Client) ShardOIDs(where *textidx.Predicate) ([]int64, error) {
	resp, err := c.roundTrip(Request{Op: "query", Phase: "oids", Where: where})
	if err != nil {
		return nil, err
	}
	return resp.OIDs, nil
}
