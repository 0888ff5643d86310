package serve

import (
	"bytes"
	"encoding/base64"
	"strconv"

	"repro/internal/prune"
)

// The two ingest shapes — the gateway's {"updates":[…]} body and the line
// protocol's {"ok":true,"applied":[…]} reply — and the line protocol's
// survivors frame read without reflection.
// The reader takes a strict subset of JSON and declines (ok false) any
// whitespace but after the value, escape, byte outside printable ASCII,
// null, key not spelled exactly as the shape's, key twice or trailing
// byte; the caller then hands the same bytes to encoding/json, the only
// definition of what they mean. What it takes it reads as encoding/json
// does (FuzzIngestBodyFastPath, FuzzAppliedReplyFastPath,
// FuzzSurvivorsFrameFastPath).

// ParseIngestBody reads a POST /v1/ingest body, or declines.
func ParseIngestBody(b []byte) (updates []WireUpdate, ok bool) {
	r := strict{b: b, slab: make([][3]float64, 0, len(b)/32)}
	ok = r.object(func(key []byte) bool {
		if string(key) != "updates" {
			return false
		}
		updates = make([]WireUpdate, 0, items(b))
		return r.array(func() bool {
			updates = append(updates, WireUpdate{})
			return r.update(&updates[len(updates)-1])
		})
	})
	return updates, ok && r.end()
}

// ParseAppliedReply reads a successful ingest reply of the line protocol,
// or declines (a failed reply, which carries an error, always is).
func ParseAppliedReply(b []byte) (applied []WireApplied, ok bool) {
	r := strict{b: b}
	success := false
	ok = r.object(func(key []byte) bool {
		switch string(key) {
		case "ok":
			return r.boolean(&success)
		case "applied":
			applied = make([]WireApplied, 0, items(b))
			return r.array(func() bool {
				applied = append(applied, WireApplied{})
				return r.applied(&applied[len(applied)-1])
			})
		}
		return false
	})
	return applied, ok && success && r.end()
}

// ParseSurvivorsFrame reads a successful frame of the line protocol's
// survivors reply — {"ok":true[,"more":true],"trajs":[{"oid":N,"vb":"…"}…]
// [,"stats":{…}]} — or declines: an error, an event or any other shape.
func ParseSurvivorsFrame(b []byte) (trajs []WireUpdate, more bool, stats *prune.Stats, ok bool) {
	r := strict{b: b}
	success := false
	ok = r.object(func(key []byte) bool {
		switch string(key) {
		case "ok":
			return r.boolean(&success)
		case "more":
			return r.boolean(&more)
		case "trajs":
			trajs = make([]WireUpdate, 0, items(b))
			return r.array(func() bool {
				trajs = append(trajs, WireUpdate{})
				return r.traj(&trajs[len(trajs)-1])
			})
		case "stats":
			stats = new(prune.Stats)
			return r.stats(stats)
		}
		return false
	})
	return trajs, more, stats, ok && success && r.end()
}

// items sizes a list by its "oid" keys, never more than items as short as
// {"oid":0} fit in b: a body cannot buy memory beyond a multiple of its size.
func items(b []byte) int {
	return min(bytes.Count(b, []byte(`"oid":`)), len(b)/len(`{"oid":0}`))
}

// strict is the reader's cursor; slab backs every verts list of a body.
type strict struct {
	b    []byte
	i    int
	slab [][3]float64
}

// end reports whether all that is left is whitespace, as JSON allows.
func (r *strict) end() bool { return len(bytes.TrimLeft(r.b[r.i:], " \t\r\n")) == 0 }

func (r *strict) eat(c byte) bool {
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// object reads {"key":value,...}, value reading each key's value; a key
// read twice declines, as encoding/json would merge the two values.
func (r *strict) object(value func(key []byte) bool) bool {
	var seen [10][]byte // no shape has more keys
	if !r.eat('{') {
		return false
	}
	for n := 0; !r.eat('}'); n++ {
		if n > 0 && !r.eat(',') || n == len(seen) {
			return false
		}
		key, ok := r.str()
		for _, k := range seen[:n] {
			ok = ok && !bytes.Equal(k, key)
		}
		if !ok || !r.eat(':') || !value(key) {
			return false
		}
		seen[n] = key
	}
	return true
}

func (r *strict) array(elem func() bool) bool {
	if !r.eat('[') {
		return false
	}
	for n := 0; !r.eat(']'); n++ {
		if n > 0 && !r.eat(',') || !elem() {
			return false
		}
	}
	return true
}

// str reads a string of printable ASCII but the backslash; the bytes
// alias the input.
func (r *strict) str() ([]byte, bool) {
	if !r.eat('"') {
		return nil, false
	}
	n := bytes.IndexByte(r.b[r.i:], '"')
	if n < 0 {
		return nil, false
	}
	s := r.b[r.i : r.i+n]
	r.i += n + 1
	for _, c := range s {
		if c-0x20 >= 0x60 || c == '\\' {
			return nil, false
		}
	}
	return s, true
}

func (r *strict) strs(out *[]string) bool {
	*out = []string{}
	return r.array(func() bool {
		s, ok := r.str()
		*out = append(*out, string(s))
		return ok
	})
}

func (r *strict) boolean(out *bool) bool {
	for _, lit := range [...]string{"false", "true"} {
		if len(r.b)-r.i >= len(lit) && string(r.b[r.i:r.i+len(lit)]) == lit {
			*out, r.i = lit == "true", r.i+len(lit)
			return true
		}
	}
	return false
}

// number reads one literal of JSON's number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *strict) number() ([]byte, bool) {
	start := r.i
	r.eat('-')
	ok := r.eat('0') || r.digits() > 0
	if r.eat('.') {
		ok = ok && r.digits() > 0
	}
	if r.eat('e') || r.eat('E') {
		_ = r.eat('+') || r.eat('-')
		ok = ok && r.digits() > 0
	}
	return r.b[start:r.i], ok
}

func (r *strict) digits() int {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}

// float and int read a number as encoding/json does, declining one strconv refuses.
func (r *strict) float(out *float64) bool {
	lit, ok := r.number()
	f, err := strconv.ParseFloat(string(lit), 64)
	*out = f
	return ok && err == nil
}

func (r *strict) int(out *int64) bool {
	lit, ok := r.number()
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*out = n
	return ok && err == nil
}

// packed reads a base64 string as encoding/json reads one into a []byte.
func (r *strict) packed(out *[]byte) bool {
	s, ok := r.str()
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	*out = b[:n]
	return ok && err == nil
}

// verts reads a list of [x,y,t] triples into the slab.
func (r *strict) verts(out *[][3]float64) bool {
	start := len(r.slab)
	ok := r.array(func() bool {
		var v [3]float64
		ok := r.eat('[') && r.float(&v[0]) && r.eat(',') && r.float(&v[1]) && r.eat(',') && r.float(&v[2]) && r.eat(']')
		r.slab = append(r.slab, v)
		return ok
	})
	*out = r.slab[start:len(r.slab):len(r.slab)]
	return ok
}

// update reads one WireUpdate of the gateway's body (no packed form).
func (r *strict) update(u *WireUpdate) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "oid":
			return r.int(&u.OID)
		case "verts":
			return r.verts(&u.Verts)
		case "tags":
			u.Tags = new([]string)
			return r.strs(u.Tags)
		case "retire":
			return r.boolean(&u.Retire)
		}
		return false
	})
}

// traj reads one packed trajectory of a survivors frame.
func (r *strict) traj(u *WireUpdate) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "oid":
			return r.int(&u.OID)
		case "vb":
			return r.packed(&u.VB)
		}
		return false
	})
}

// stats reads a survivors frame's sweep statistics.
func (r *strict) stats(st *prune.Stats) bool {
	return r.object(func(key []byte) bool {
		var field *int
		switch string(key) {
		case "candidates":
			field = &st.Candidates
		case "survivors":
			field = &st.Survivors
		case "slices":
			field = &st.Slices
		case "probes":
			field = &st.Probes
		default:
			return false
		}
		var n int64
		ok := r.int(&n)
		*field = int(n)
		return ok && int64(*field) == n
	})
}

func (r *strict) applied(a *WireApplied) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "oid":
			return r.int(&a.OID)
		case "inserted":
			return r.boolean(&a.Inserted)
		case "retired":
			return r.boolean(&a.Retired)
		case "changed_from":
			return r.float(&a.ChangedFrom)
		case "tags_only":
			return r.boolean(&a.TagsOnly)
		case "vb":
			return r.packed(&a.VB)
		case "pvb":
			return r.packed(&a.PVB)
		case "tags_changed":
			return r.boolean(&a.TagsChanged)
		case "tags":
			return r.strs(&a.Tags)
		case "prev_tags":
			return r.strs(&a.PrevTags)
		}
		return false
	})
}
