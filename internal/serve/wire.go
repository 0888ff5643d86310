package serve

import (
	"math"

	"repro/internal/mod"
	"repro/internal/trajectory"
)

// The one JSON shape of live updates and their applied outcomes, shared
// by the line protocol's ingest op and POST /v1/ingest. Vertices travel as
// [x, y, t] triples; JSON has no Inf literal, so the two infinite
// ChangedFrom values travel as markers instead.

// WireUpdate is one mod.Update on the wire (and, with only OID and Verts
// set, one trajectory of the line protocol's shard phases). Tags follows
// the mod.Update tri-state: absent/null leaves the object's tags alone, []
// clears them, a non-empty list replaces them. Retire removes the object
// and must come with neither vertices nor tags.
type WireUpdate struct {
	OID    int64        `json:"oid"`
	Verts  [][3]float64 `json:"verts,omitempty"`
	Tags   *[]string    `json:"tags,omitempty"`
	Retire bool         `json:"retire,omitempty"`
}

// WireApplied is one mod.Applied on the wire. ChangedFrom is omitted for
// inserts and retirements (-Inf in memory) and for pure tag flips, which
// carry TagsOnly instead (+Inf in memory: no motion changed).
type WireApplied struct {
	OID         int64        `json:"oid"`
	Inserted    bool         `json:"inserted,omitempty"`
	Retired     bool         `json:"retired,omitempty"`
	ChangedFrom float64      `json:"changed_from,omitempty"`
	TagsOnly    bool         `json:"tags_only,omitempty"`
	Verts       [][3]float64 `json:"verts,omitempty"`
	PrevVerts   [][3]float64 `json:"prev_verts,omitempty"`
	TagsChanged bool         `json:"tags_changed,omitempty"`
	Tags        []string     `json:"tags,omitempty"`
	PrevTags    []string     `json:"prev_tags,omitempty"`
}

// EncodeVerts flattens vertices into wire triples.
func EncodeVerts(verts []trajectory.Vertex) [][3]float64 {
	out := make([][3]float64, len(verts))
	for i, v := range verts {
		out[i] = [3]float64{v.X, v.Y, v.T}
	}
	return out
}

// DecodeVerts rebuilds vertices from wire triples (nil for none — a pure
// tag flip carries no motion).
func DecodeVerts(wire [][3]float64) []trajectory.Vertex {
	if len(wire) == 0 {
		return nil
	}
	out := make([]trajectory.Vertex, len(wire))
	for i, v := range wire {
		out[i] = trajectory.Vertex{X: v[0], Y: v[1], T: v[2]}
	}
	return out
}

// EncodeUpdates flattens an update batch onto the wire.
func EncodeUpdates(updates []mod.Update) []WireUpdate {
	out := make([]WireUpdate, len(updates))
	for i, u := range updates {
		out[i] = WireUpdate{OID: u.OID, Verts: EncodeVerts(u.Verts), Tags: u.Tags, Retire: u.Retire}
	}
	return out
}

// DecodeUpdates rebuilds an update batch from the wire. Validation stays
// with mod.ApplyUpdate.
func DecodeUpdates(wire []WireUpdate) []mod.Update {
	out := make([]mod.Update, len(wire))
	for i, wu := range wire {
		out[i] = mod.Update{OID: wu.OID, Verts: DecodeVerts(wu.Verts), Tags: wu.Tags, Retire: wu.Retire}
	}
	return out
}

// EncodeApplied flattens applied outcomes onto the wire.
func EncodeApplied(applied []mod.Applied) []WireApplied {
	out := make([]WireApplied, len(applied))
	for i, a := range applied {
		wa := WireApplied{
			OID: a.OID, Inserted: a.Inserted, Retired: a.Retired,
			TagsChanged: a.TagsChanged, Tags: a.Tags, PrevTags: a.PrevTags,
		}
		switch {
		case a.Inserted || a.Retired:
		case math.IsInf(a.ChangedFrom, 1):
			wa.TagsOnly = true
		default:
			wa.ChangedFrom = a.ChangedFrom
		}
		if a.Traj != nil {
			wa.Verts = EncodeVerts(a.Traj.Verts)
		}
		if a.Prev != nil {
			wa.PrevVerts = EncodeVerts(a.Prev.Verts)
		}
		out[i] = wa
	}
	return out
}

// DecodeApplied rebuilds applied outcomes from the wire — the client half
// of EncodeApplied.
func DecodeApplied(wire []WireApplied) ([]mod.Applied, error) {
	out := make([]mod.Applied, len(wire))
	for i, wa := range wire {
		a := mod.Applied{
			OID: wa.OID, Inserted: wa.Inserted, Retired: wa.Retired, ChangedFrom: wa.ChangedFrom,
			TagsChanged: wa.TagsChanged, Tags: wa.Tags, PrevTags: wa.PrevTags,
		}
		switch {
		case wa.Inserted || wa.Retired:
			a.ChangedFrom = math.Inf(-1)
		case wa.TagsOnly:
			a.ChangedFrom = math.Inf(1)
		}
		var err error
		if len(wa.Verts) > 0 {
			if a.Traj, err = trajectory.New(wa.OID, DecodeVerts(wa.Verts)); err != nil {
				return nil, err
			}
		}
		if len(wa.PrevVerts) > 0 {
			if a.Prev, err = trajectory.New(wa.OID, DecodeVerts(wa.PrevVerts)); err != nil {
				return nil, err
			}
		}
		out[i] = a
	}
	return out, nil
}
