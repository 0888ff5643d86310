package gateway

// The SSE continuous-query stream. GET /v1/subscribe registers a
// standing query on the hub and streams its diff events as
// `event: diff` frames whose `id:` is the subscription sequence number,
// so a plain EventSource reconnect (Last-Event-ID) — or an explicit
// sub_id+from_seq pair — resumes the stream across a severed connection
// with the hub's replay backlog, the same recovery contract as the TCP
// modserver's detached subscriptions.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/textidx"
)

// sseWriteTimeout bounds each event write so a stalled consumer cannot
// wedge its handler goroutine forever (ingest itself never blocks on a
// stream: fan-out severs a full channel instead of waiting).
const sseWriteTimeout = 30 * time.Second

// sseStream is one live stream's event route and its subscription's
// serve.Sink. The core's ingest fan-out is the only sender, and — on a
// full buffer — the only closer.
type sseStream struct {
	ch chan continuous.Event
}

var errStreamFull = errors.New("gateway: stream consumer fell a full buffer behind")

// Deliver implements serve.Sink without ever blocking ingest: a consumer
// that stalled a full buffer behind is severed — the closed channel
// unwinds its handler — and the core leaves the subscription resumable.
func (st *sseStream) Deliver(ev continuous.Event) error {
	select {
	case st.ch <- ev:
		return nil
	default:
		close(st.ch)
		return errStreamFull
	}
}

// subscribedEvent is the first SSE frame: the subscription id and its
// current full answer (the initial evaluation on subscribe, the
// re-fetched answer on resume).
type subscribedEvent struct {
	SubID  int64         `json:"sub_id"`
	Result engine.Result `json:"result"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.core == nil {
		writeError(w, errNoHub)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errors.New("gateway: response writer cannot stream"))
		return
	}

	q := r.URL.Query()
	resume := q.Get("sub_id") != ""
	var (
		subID   int64
		fromSeq uint64
		req     engine.Request
		err     error
	)
	if resume {
		subID, err = strconv.ParseInt(q.Get("sub_id"), 10, 64)
		if err != nil {
			writeError(w, badReq(fmt.Errorf("gateway: bad sub_id: %w", err)))
			return
		}
		seqStr := q.Get("from_seq")
		if seqStr == "" {
			seqStr = r.Header.Get("Last-Event-ID")
		}
		if seqStr == "" {
			writeError(w, badReq(errors.New("gateway: resume needs from_seq or Last-Event-ID")))
			return
		}
		fromSeq, err = strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			writeError(w, badReq(fmt.Errorf("gateway: bad from_seq: %w", err)))
			return
		}
	} else {
		req, err = requestFromQuery(q)
		if err != nil {
			writeError(w, err)
			return
		}
	}

	if s.draining.Load() {
		writeError(w, errDraining)
		return
	}
	st := &sseStream{ch: make(chan continuous.Event, DefaultEventBuffer)}
	var answer engine.Result
	var backlog []continuous.Event
	// The core registers (or re-attaches) the stream atomically with the
	// answer and backlog captured here, and buffers every later event on
	// st.ch: the stream is gap- and duplicate-free.
	if resume {
		err = s.core.Resume(subID, fromSeq, st, func(a engine.Result, b []continuous.Event) error {
			answer, backlog = a, b
			return nil
		})
		if errors.Is(err, continuous.ErrEventGap) {
			s.opts.Metrics.countGap()
		}
		if err == nil {
			s.opts.Metrics.countResume()
		}
	} else {
		var deadlineMS int64
		if v := q.Get("deadline_ms"); v != "" {
			if deadlineMS, err = strconv.ParseInt(v, 10, 64); err != nil {
				writeError(w, badReq(fmt.Errorf("gateway: bad deadline_ms: %w", err)))
				return
			}
		}
		ctx, cancel := s.reqCtx(r, deadlineMS)
		subID, answer, err = s.core.Subscribe(ctx, req, st)
		cancel()
	}
	if err != nil {
		writeError(w, err)
		return
	}

	s.opts.Metrics.streamAttached()
	defer s.opts.Metrics.streamDetached()
	// On any exit the subscription detaches (LRU- and TTL-bounded) so the
	// client can resume from its last seen event id.
	defer s.core.Detach(subID, st)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	write := func(event, id string, data []byte) error {
		_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
		if err := writeSSE(w, event, id, data); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}

	first, err := json.Marshal(subscribedEvent{SubID: subID, Result: answer})
	if err != nil || write("subscribed", "", first) != nil {
		return
	}
	for _, ev := range backlog {
		if s.writeEvent(write, ev) != nil {
			return
		}
	}
	for {
		select {
		case ev, chOpen := <-st.ch:
			if !chOpen {
				// Severed: the consumer stalled past its buffer; the
				// subscription stays resumable.
				return
			}
			if s.writeEvent(write, ev) != nil {
				return
			}
		case <-s.drain:
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) writeEvent(write func(event, id string, data []byte) error, ev continuous.Event) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	s.opts.Metrics.countEvents(1)
	return write("diff", strconv.FormatUint(ev.Seq, 10), b)
}

// writeSSE emits one server-sent event frame. data is JSON (no raw
// newlines), so a single data: line suffices.
func writeSSE(w io.Writer, event, id string, data []byte) error {
	if event != "" {
		if _, err := fmt.Fprintf(w, "event: %s\n", event); err != nil {
			return err
		}
	}
	if id != "" {
		if _, err := fmt.Fprintf(w, "id: %s\n", id); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "data: %s\n\n", data)
	return err
}

// requestFromQuery builds the standing engine.Request from subscribe
// query parameters (names match the JSON field names). Semantic
// validation stays with the engine.
func requestFromQuery(q url.Values) (engine.Request, error) {
	var req engine.Request
	req.Kind = engine.Kind(q.Get("kind"))
	for _, f := range []struct {
		name string
		dst  *float64
	}{{"tb", &req.Tb}, {"te", &req.Te}, {"x", &req.X}, {"t", &req.T}, {"p", &req.P}} {
		v := q.Get(f.name)
		if v == "" {
			continue
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return req, badReq(fmt.Errorf("gateway: bad %s: %w", f.name, err))
		}
		*f.dst = x
	}
	for _, f := range []struct {
		name string
		dst  *int64
	}{{"query_oid", &req.QueryOID}, {"oid", &req.OID}} {
		v := q.Get(f.name)
		if v == "" {
			continue
		}
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return req, badReq(fmt.Errorf("gateway: bad %s: %w", f.name, err))
		}
		*f.dst = x
	}
	if v := q.Get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return req, badReq(fmt.Errorf("gateway: bad k: %w", err))
		}
		req.K = k
	}
	if v := q.Get("where"); v != "" {
		// The predicate rides as a JSON object ({all, any, not} tag lists),
		// URL-encoded.
		var p textidx.Predicate
		if err := json.Unmarshal([]byte(v), &p); err != nil {
			return req, badReq(fmt.Errorf("gateway: bad where: %w", err))
		}
		w, err := p.Normalize()
		if err != nil {
			return req, badReq(fmt.Errorf("gateway: bad where: %w", err))
		}
		req.Where = w
	}
	return req, nil
}
