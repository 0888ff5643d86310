package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/mod"
	"repro/internal/trajectory"
)

// TestFastPathAllocs: the strict readers allocate for what they return,
// never per number or per key — a body of revisions costs its updates
// slice and one verts slab, a reply its outcomes slice and one buffer per
// packed plan.
func TestFastPathAllocs(t *testing.T) {
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	updates := make([]mod.Update, n)
	for i := range updates {
		oid, y := int64(i+1), float64(i)/3
		if err := st.Insert(plan(oid, y)); err != nil {
			t.Fatal(err)
		}
		updates[i] = mod.Update{OID: oid, Verts: []trajectory.Vertex{
			{X: 5 + y/7, Y: y + 0.37, T: 4.5 + y/1e3}, {X: 6.25, Y: -y, T: 8}, {X: 1e-7 * y, Y: y * 1e5, T: 10 + y},
		}}
	}
	wire := make([]WireUpdate, n)
	for i, u := range updates {
		wire[i] = WireUpdate{OID: u.OID, Verts: EncodeVerts(u.Verts)}
	}
	body, err := json.Marshal(struct {
		Updates []WireUpdate `json:"updates"`
	}{wire})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := ParseIngestBody(body); !ok || len(got) != n {
		t.Fatalf("the body was declined (%t) or read as %d updates", ok, len(got))
	}
	if allocs := testing.AllocsPerRun(20, func() { ParseIngestBody(body) }); allocs > 2 {
		t.Fatalf("ParseIngestBody of %d revisions allocates %v times, want <= 2", n, allocs)
	}

	applied, err := st.ApplyUpdates(updates)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(struct {
		OK      bool          `json:"ok"`
		Applied []WireApplied `json:"applied"`
	}{true, EncodeApplied(applied)})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := ParseAppliedReply(line); !ok || len(got) != n {
		t.Fatalf("the reply was declined (%t) or read as %d outcomes", ok, len(got))
	}
	if allocs := testing.AllocsPerRun(20, func() { ParseAppliedReply(line) }); allocs > 1+n {
		t.Fatalf("ParseAppliedReply of %d revisions allocates %v times, want <= %d", n, allocs, 1+n)
	}
}

// TestStrictReaderEdges: each edge of the subset the readers take —
// numbers, escapes, keys, null, empty lists, vertex arity, whitespace and
// trailing bytes — is taken or declined as listed, and what is taken is
// what encoding/json reads: the same value, and the same bytes when both
// are encoded again (which tells -0 from 0). FuzzIngestBodyFastPath and
// FuzzAppliedReplyFastPath search the rest.
func TestStrictReaderEdges(t *testing.T) {
	const pvb = "AAAAAAAA4D8AAAAAAADwvwAAAAAAAAAAAAAAAAAAAEAAAAAAAAAIQAAAAAAAACJA"
	bodies := []struct {
		body string
		ok   bool
	}{
		{`{"updates":[{"oid":3,"verts":[[1.5,-2,5],[3,4e-3,12]]},{"oid":3,"tags":["ev"]},{"oid":4,"retire":true}]}`, true},
		{`{"updates":[{"oid":1,"retire":true}]}` + "\n", true},
		{`{"updates":[]}` + " \t\r\n", true},
		{`{}`, true},
		{`{"updates":[{"oid":-7,"verts":[],"tags":[],"retire":false}]}`, true},
		{`{"updates":[{"oid":1,"verts":[[1E+2,-0.5e-3,0e0],[-0,-0.0,1e-400]]}]}`, true},
		{`{"updates":[{"verts":[[0,1,2]],"oid":0}]}`, true},
		{`{"updates":[{"oid":1,"tags":["<a>"]}]}`, true},
		{`{"updates": []}`, false},
		{" " + `{"updates":[]}`, false},
		{`{"updates":[]}` + "\n{}", false},
		{`{"updates":[]}{}`, false},
		{`{"updates":[{"oid":1}`, false},
		{`{"updates":[{"oid":1,"tags":["\u003c"]}]}`, false},
		{`{"updates":[{"oid":1,"tags":["\""]}]}`, false},
		{`{"updates":[{"oid":1,"tags":["é"]}]}`, false},
		{`{"Updates":[]}`, false},
		{`{"updates":[{"OID":1}]}`, false},
		{`{"updates":[],"updates":[]}`, false},
		{`{"updates":[{"oid":1,"oid":2}]}`, false},
		{`{"updates":null}`, false},
		{`{"updates":[{"oid":1,"tags":null}]}`, false},
		{`{"updates":[{"oid":1,"vb":"AAAA"}]}`, false},
		{`{"updates":[{"oid":1.0}]}`, false},
		{`{"updates":[{"oid":9223372036854775808}]}`, false},
		{`{"updates":[{"oid":01}]}`, false},
		{`{"updates":[{"oid":1,"verts":[[.5,0,0]]}]}`, false},
		{`{"updates":[{"oid":1,"verts":[[1.,0,0]]}]}`, false},
		{`{"updates":[{"oid":1,"verts":[[1e,0,0]]}]}`, false},
		{`{"updates":[{"oid":1,"verts":[[1e309,0,0]]}]}`, false},
		{`{"updates":[{"oid":1,"verts":[[1,2]]}]}`, false},
		{`{"updates":[{"oid":1,"verts":[[1,2,3,4]]}]}`, false},
		{`{"updates":[{"oid":1,"retire":True}]}`, false},
		{`{"updates":[{"oid":1},]}`, false},
		{`{"updates":[{"oid":1}],}`, false},
	}
	for _, c := range bodies {
		got, ok := ParseIngestBody([]byte(c.body))
		if ok != c.ok {
			t.Errorf("ParseIngestBody(%q): ok = %t, want %t", c.body, ok, c.ok)
			continue
		}
		if ok {
			var want struct {
				Updates []WireUpdate `json:"updates"`
			}
			sameAsJSON(t, c.body, &struct {
				Updates []WireUpdate `json:"updates"`
			}{got}, &want)
		}
	}

	replies := []struct {
		line string
		ok   bool
	}{
		{`{"ok":true,"applied":[{"oid":4,"changed_from":3,"pvb":"` + pvb + `"},{"oid":9,"inserted":true,"tags_changed":true,"tags":["ev"]},` +
			`{"oid":5,"tags_only":true,"vb":"` + pvb + `","tags_changed":true,"tags":["ev"],"prev_tags":["old"]},{"oid":6,"retired":true,"pvb":"` + pvb + `"}]}`, true},
		{`{"applied":[{"oid":1,"changed_from":-0,"pvb":""}],"ok":true}`, true},
		{`{"ok":true,"applied":[{"oid":1,"changed_from":2.5e-3,"tags":[],"prev_tags":[]}]}` + "\n", true},
		{`{"ok":true}`, true},
		{`{"ok":true,"applied":[]}`, true},
		{`{"ok":false,"applied":[]}`, false},
		{`{"applied":[]}`, false},
		{`{"ok":true,"ok":true}`, false},
		{`{"OK":true,"applied":[]}`, false},
		{`{"ok":true,"Applied":[]}`, false},
		{`{"ok":false,"error":"boom","code":"internal"}`, false},
		{`{"event":{"sub":1}}`, false},
		{`{"ok":true,"applied":[{"oid":1,"pvb":"AAA"}]}`, false},
		{`{"ok":true,"applied":[{"oid":1,"pvb":"!!!!"}]}`, false},
		{`{"ok":true,"applied":[{"oid":1,"pvb":null}]}`, false},
		{`{"ok":true,"applied":[{"oid":1,"pvb":"AA\/A"}]}`, false},
		{`{"ok":true,"applied":[{"oid":1,"inserted":true,"inserted":true}]}`, false},
		{`{"ok":true,"applied":[{"oid":1,"tags":null}]}`, false},
		{`{"ok":true,"applied":[{"oid":1,"verts":[[0,0,0]]}]}`, false},
		{`{"ok":true,"applied":[{"oid":1,"changed_from":1e309}]}`, false},
		{`{"ok":true,"applied":[{"oid":2.0}]}`, false},
		{`{"ok":true, "applied":[]}`, false},
		{`{"ok":true,"applied":[]}x`, false},
		{`{"ok":true,"applied":[{"oid":1}`, false},
	}
	for _, c := range replies {
		got, ok := ParseAppliedReply([]byte(c.line))
		if ok != c.ok {
			t.Errorf("ParseAppliedReply(%q): ok = %t, want %t", c.line, ok, c.ok)
			continue
		}
		if ok {
			type reply struct {
				OK      bool          `json:"ok"`
				Applied []WireApplied `json:"applied"`
			}
			sameAsJSON(t, c.line, &reply{true, got}, &reply{})
		}
	}
}

// sameAsJSON checks that got, read from in by a strict reader, is what
// encoding/json reads into want.
func sameAsJSON(t *testing.T, in string, got, want any) {
	t.Helper()
	if err := json.Unmarshal([]byte(in), want); err != nil {
		t.Errorf("%q: taken, but encoding/json refuses it: %v", in, err)
		return
	}
	g, gerr := json.Marshal(got)
	w, werr := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || gerr != nil || werr != nil || !bytes.Equal(g, w) {
		t.Errorf("%q: read as %s (%v), encoding/json reads %s (%v)", in, g, gerr, w, werr)
	}
}

// TestFloodedBodyAllocs: what the readers allocate is a bounded multiple
// of the input's length however the bytes are chosen — a list of one
// item's opening repeated until the input is 1 MiB long, a '{' or an
// "oid" key at a time, declined at its second item — so a hostile
// ingest body costs at most its own length times an item's size over
// the shortest item's.
func TestFloodedBodyAllocs(t *testing.T) {
	const size = 1 << 20
	shortest := len(`{"oid":0}`)
	parsers := []struct {
		name   string
		head   string
		parse  func([]byte) bool
		itemSz uintptr
	}{
		{"ParseIngestBody", `{"updates":[`, func(b []byte) bool { _, ok := ParseIngestBody(b); return ok }, unsafe.Sizeof(WireUpdate{})},
		{"ParseAppliedReply", `{"ok":true,"applied":[`, func(b []byte) bool { _, ok := ParseAppliedReply(b); return ok }, unsafe.Sizeof(WireApplied{})},
	}
	for _, p := range parsers {
		for _, flood := range []string{`{`, `{"oid":`} {
			b := append([]byte(p.head), bytes.Repeat([]byte(flood), size/len(flood))...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ok := p.parse(b)
			runtime.ReadMemStats(&after)
			bound := uint64(len(b)) * (uint64(p.itemSz)/uint64(shortest) + 1)
			if got := after.TotalAlloc - before.TotalAlloc; ok || got > bound {
				t.Errorf("%s of a %d-byte %q flood: ok = %t, allocated %d bytes, want declined and <= %d",
					p.name, len(b), flood, ok, got, bound)
			}
		}
	}
}
