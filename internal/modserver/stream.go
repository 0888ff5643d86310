// Streamed replies and the distributed-refine phases of the wire
// protocol: frame chunking, the server's per-connection gather cache, and
// the client's stream reassembly (StreamAccum) plus the refine upload
// path. See the package comment for the frame grammar.
package modserver

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// codeUnknownGather marks a refine probe against a gather ID this
// connection's server cache no longer holds; the client reacts by
// uploading the union and retrying in the final upload frame.
const codeUnknownGather = "unknown_gather"

// DefaultMaxGatherBytes caps the estimated wire size one gather upload
// may accumulate across frames (64 MiB). Options.MaxGatherBytes
// overrides it per server.
const DefaultMaxGatherBytes = 64 << 20

// gatherCacheCap bounds how many completed union stores a connection may
// hold for refinement, and how many uploads it may have open at once. A
// router batch refines against one gather at a time, so two covers the
// hand-over between consecutive gathers.
const gatherCacheCap = 2

// codeGatherLimit marks the parting reply to a connection that opened more
// than gatherCacheCap unfinished uploads (a legitimate client has one);
// evicting would let a later final frame refine against a partial union.
const codeGatherLimit = "gather_limit"

// trajWireBytes is one trajectory's encoded size as an element of a trajs
// array, separator included: exact for the packed form our frames carry,
// so frames fill the line cap and the gather cap counts real bytes; the
// decimal form an older client may upload is priced at its ceiling (three
// shortest-round-trip floats a vertex, ≤ 25 bytes each with separators).
func trajWireBytes(wt WireTraj) int {
	var digits [20]byte
	return len(`{"oid":,"vb":""},`) + len(strconv.AppendInt(digits[:0], wt.OID, 10)) +
		base64.StdEncoding.EncodedLen(len(wt.VB)) + 80*len(wt.Verts)
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

// streamPhase evaluates the survivors/all phases and streams the reply.
// It reports false when a write failed and the connection must close (a
// half-sent stream cannot be resynchronized); error outcomes are ordinary
// single-line replies.
func (s *Server) streamPhase(req Request, cs *connState) bool {
	var (
		trajs []WireTraj
		stats *prune.Stats
	)
	switch req.Phase {
	case "survivors":
		q, err := wireQuery(req)
		if err != nil {
			return cs.send(codedFail(err)) == nil
		}
		if err := req.Where.Validate(); err != nil {
			return cs.send(Response{Error: err.Error()}) == nil
		}
		ctx, cancel := phaseCtx(req)
		trs, st, serr := prune.SurvivorsWithBoundsWhere(ctx, s.store, q, req.Tb, req.Te, decodeBounds(req.Bounds), req.Where)
		cancel()
		if serr != nil {
			return cs.send(codedFail(serr)) == nil
		}
		trajs, stats = encodeTrajs(trs), &st
	case "all":
		trajs = encodeTrajs(s.store.All())
	default:
		return cs.send(Response{Error: fmt.Sprintf("unknown stream phase %q", req.Phase)}) == nil
	}
	return s.streamTrajs(cs, trajs, stats)
}

// streamTrajs ships a trajectory set as incremental frames sized to the
// server's own line cap, so one reply never needs an encode buffer larger
// than a request line. A set that fits one frame goes as a classic
// single-line reply (no write deadline — the pre-streaming behavior);
// multi-frame streams apply the write deadline per frame (sendEvent), so a
// reader that stalls mid-stream is severed at the next frame instead of
// pinning the connection goroutine on a full TCP buffer.
func (s *Server) streamTrajs(cs *connState, trajs []WireTraj, stats *prune.Stats) bool {
	// 256: the reply line's fixed keys, the final frame's stats, the newline.
	frames := chunkTrajs(trajs, s.maxLine-256)
	last := len(frames) - 1
	if last == 0 {
		return cs.send(Response{OK: true, Trajs: frames[0], Stats: stats}) == nil
	}
	for _, chunk := range frames[:last] {
		if cs.sendEvent(Response{OK: true, More: true, Trajs: chunk}) != nil {
			return false
		}
	}
	return cs.sendEvent(Response{OK: true, Trajs: frames[last], Stats: stats}) == nil
}

// gatherAccum is one in-flight gather upload: accumulated chunks, their
// estimated wire size, and the first error (reported on the final frame —
// intermediate frames get no reply to fail on).
type gatherAccum struct {
	wts   []WireTraj
	bytes int
	err   error
}

// accumGather folds one upload frame into the connection's pending gather,
// enforcing the per-gather byte cap.
func (s *Server) accumGather(req Request, cs *connState) {
	if cs.pending == nil {
		cs.pending = make(map[string]*gatherAccum)
	}
	acc := cs.pending[req.GatherID]
	if acc == nil {
		acc = &gatherAccum{}
		cs.pending[req.GatherID] = acc
	}
	if acc.err != nil {
		return
	}
	for _, wt := range req.Trajs {
		acc.bytes += trajWireBytes(wt)
	}
	if s.maxGather > 0 && acc.bytes > s.maxGather {
		acc.err = fmt.Errorf("modserver: gather %q exceeds %d bytes", req.GatherID, s.maxGather)
		acc.wts = nil
		return
	}
	acc.wts = append(acc.wts, req.Trajs...)
}

// doGather completes a union upload: it folds the final chunk in, builds
// the union store, caches it under the gather ID, and — when the final
// frame carries a request — refines against it immediately, saving the
// uploader a round trip.
func (s *Server) doGather(req Request, cs *connState) Response {
	if req.GatherID == "" {
		return Response{Error: "modserver: gather frame without gather_id"}
	}
	s.accumGather(req, cs)
	acc := cs.pending[req.GatherID]
	delete(cs.pending, req.GatherID)
	if acc.err != nil {
		return Response{Error: acc.err.Error()}
	}
	trs, err := decodeTrajs(acc.wts)
	if err != nil {
		return codedFail(err)
	}
	union, err := mod.NewStore(s.store.Spec())
	if err != nil {
		return Response{Error: err.Error()}
	}
	for _, tr := range trs {
		if err := union.Insert(tr); err != nil {
			return Response{Error: err.Error()}
		}
	}
	cs.cacheGather(req.GatherID, union)
	if req.Request != nil {
		return s.doRefine(req, cs)
	}
	return Response{OK: true}
}

// cacheGather inserts a completed union store into the connection's LRU
// gather cache.
func (cs *connState) cacheGather(id string, union *mod.Store) {
	if cs.gathers == nil {
		cs.gathers = make(map[string]*mod.Store)
	}
	if _, ok := cs.gathers[id]; !ok {
		cs.gatherOrder = append(cs.gatherOrder, id)
		for len(cs.gatherOrder) > gatherCacheCap {
			delete(cs.gathers, cs.gatherOrder[0])
			cs.gatherOrder = cs.gatherOrder[1:]
		}
	}
	cs.gathers[id] = union
}

// doRefine evaluates a whole-MOD filter over a cached union store with the
// candidate domain restricted to the uploader's own survivor share. An
// unknown gather ID is a structured miss (codeUnknownGather) so the
// client knows to upload rather than fail.
func (s *Server) doRefine(req Request, cs *connState) Response {
	union := cs.gathers[req.GatherID]
	if union == nil {
		return Response{Error: fmt.Sprintf("modserver: unknown gather %q", req.GatherID), Code: codeUnknownGather}
	}
	if req.Request == nil {
		return Response{Error: "modserver: refine without request"}
	}
	ctx, cancel := phaseCtx(req)
	defer cancel()
	res, err := s.engine.DoRestricted(ctx, union, *req.Request, req.OIDs)
	if err != nil {
		return codedFail(err)
	}
	ans := encodeAnswer(res)
	return Response{OK: true, Answer: &ans}
}

// StreamAccum incrementally reassembles a streamed reply from raw
// response lines. Feed each line to AddLine; chunks accumulate until the
// final (non-more) frame arrives, which is returned with the full
// trajectory set folded in. Event lines pass through untouched.
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
	if err := json.Unmarshal(line, &resp); err != nil {
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

// roundTripStream sends a request whose reply may arrive as a frame
// stream and reassembles it; a single non-more response is the degenerate
// one-frame case, so it also accepts classic single-line replies.
func (c *Client) roundTripStream(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	var acc StreamAccum
	for {
		if !c.sc.Scan() {
			if err := c.sc.Err(); err != nil {
				return Response{}, err
			}
			return Response{}, ErrConnClosed
		}
		final, ev, err := acc.AddLine(c.sc.Bytes())
		if err != nil {
			return Response{}, lineError(c.sc.Bytes(), err)
		}
		if ev != nil {
			c.pending = append(c.pending, *ev)
			continue
		}
		if final == nil {
			continue
		}
		if !final.OK {
			return *final, respError(*final)
		}
		return *final, nil
	}
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

// ShardRefine evaluates a whole-MOD filter against a gathered union
// survivor store with the candidate domain restricted to own — the wire
// half of cluster.Shard.Refine, which the cluster router no longer calls
// (it refines the union it gathered itself). The server's gather cache is
// per connection and this client is the connection, so a gather ID it has
// not uploaded is a certain miss: it is uploaded straight away and refined
// inside the final upload frame. An ID it has uploaded (the common case:
// one batch issues several refines against one gather) is probed by ID
// alone and no trajectory moves; should the server have evicted it, the
// structured unknown_gather miss falls back to the upload. deadline <= 0
// means none.
func (c *Client) ShardRefine(gatherID string, union []*trajectory.Trajectory, own []int64, req engine.Request, deadline time.Duration) (engine.Result, error) {
	final := Request{
		Op: "query", Phase: "refine", GatherID: gatherID,
		OIDs: own, Request: &req, DeadlineMS: deadlineMS(deadline),
	}
	var resp Response
	var err error
	known := slices.Contains(c.uploaded, gatherID)
	if known {
		resp, err = c.roundTrip(final)
	}
	if !known || resp.Code == codeUnknownGather {
		resp, err = c.uploadRefine(final, union)
	}
	if err != nil {
		return engine.Result{Kind: req.Kind, Err: err}, err
	}
	return answerResult(req.Kind, resp.Answer)
}

// uploadRefine ships the union store in chunked gather frames and refines
// in the final one: the refine request with the last chunk added.
// Intermediate frames are unanswered by protocol, so the upload costs one
// round trip regardless of chunk count. Chunks are sized from the server's
// advertised line cap (the spec is fetched once per connection if no reply
// has carried it) less the measured size of the final frame's other
// fields. Only an upload the server answered is remembered as cached.
func (c *Client) uploadRefine(final Request, union []*trajectory.Trajectory) (Response, error) {
	if c.frameBytes == 0 {
		if _, err := c.Spec(); err != nil {
			return Response{}, err
		}
		if c.frameBytes == 0 {
			c.frameBytes = MaxLine // server predates max_line advertisement
		}
	}
	final.Phase = "gather"
	envelope, err := json.Marshal(final)
	if err != nil {
		return Response{}, err
	}
	// The separator priced into the last element pays for the newline.
	frames := chunkTrajs(encodeTrajs(union), c.frameBytes-len(envelope)-len(`,"trajs":[]`))
	last := len(frames) - 1
	for _, chunk := range frames[:last] {
		if err := c.enc.Encode(Request{Op: "query", Phase: "gather", GatherID: final.GatherID, More: true, Trajs: chunk}); err != nil {
			return Response{}, err
		}
	}
	final.Trajs = frames[last]
	resp, err := c.roundTrip(final)
	if err == nil && !slices.Contains(c.uploaded, final.GatherID) {
		c.uploaded = append(c.uploaded, final.GatherID)
		c.uploaded = c.uploaded[max(0, len(c.uploaded)-gatherCacheCap):]
	}
	return resp, err
}

// answerResult rebuilds an engine.Result from a wire Answer.
func answerResult(kind engine.Kind, a *Answer) (engine.Result, error) {
	res := engine.Result{Kind: kind}
	if a == nil {
		res.Err = errors.New("modserver: reply carries no answer")
		return res, res.Err
	}
	if !a.OK {
		res.Err = errors.New(a.Error)
		return res, res.Err
	}
	if a.Explain != nil {
		res.Explain = *a.Explain
	}
	switch {
	case a.IsBool:
		res.IsBool = true
		if a.Bool != nil {
			res.Bool = *a.Bool
		}
	case a.Pairs != nil:
		res.Pairs = a.Pairs
	default:
		res.OIDs = a.OIDs
	}
	return res, nil
}
