package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/mod"
	"repro/internal/trajectory"
)

// The one JSON shape of live updates and their applied outcomes, shared
// by the line protocol's ingest op and POST /v1/ingest. JSON has no Inf
// literal, so the two infinite ChangedFrom values travel as markers
// instead.
//
// Vertices are decimal in requests, packed on the shard link. A request's
// "verts" are [x, y, t] triples as decimal text: what the gateway speaks
// and a human types. The shard link's form is "vb" ("pvb" for a
// superseded plan): the vertices as 24-byte little-endian IEEE-754
// triples, which encoding/json carries as base64 — 32 characters a vertex
// against ~55, no float formatting or parsing, and bit-exact by
// construction. Every frame that moves a trajectory between router and
// shard is packed; update decoders take either form per item and hand it
// to the same trajectory.New / mod.ApplyUpdates validation. An applied
// outcome carries on the shard link only the plans the router cannot
// rebuild from the update it sent (EncodeApplied), and no plan at all in
// the gateway's reply. strict.go reads both ingest shapes.

// ErrBadWire reports an item whose vertices cannot be read: both forms at
// once, a ragged packed length, or vb on a surface that does not speak it.
var ErrBadWire = errors.New("serve: bad wire vertices")

// ErrProtocol reports a shard reply that contradicts its request.
var ErrProtocol = errors.New("shard protocol error")

// packedVertex is the size of one packed vertex: x, y, t as float64.
const packedVertex = 24

// WireUpdate is one mod.Update on the wire (and, with only OID and
// vertices set, one trajectory of the line protocol's shard phases). Tags
// follows the mod.Update tri-state: absent/null leaves the object's tags
// alone, [] clears them, a non-empty list replaces them. Retire removes
// the object and must come with neither vertices nor tags.
type WireUpdate struct {
	OID    int64        `json:"oid"`
	Verts  [][3]float64 `json:"verts,omitempty"`
	VB     []byte       `json:"vb,omitempty"`
	Tags   *[]string    `json:"tags,omitempty"`
	Retire bool         `json:"retire,omitempty"`
}

// WireApplied is one mod.Applied on the wire. ChangedFrom is omitted for
// inserts and retirements (-Inf in memory) and for pure tag flips, which
// carry TagsOnly instead (+Inf in memory: no motion changed). VB (a flip's
// plan) and PVB (a superseded plan) are set on the shard link only.
type WireApplied struct {
	OID         int64    `json:"oid"`
	Inserted    bool     `json:"inserted,omitempty"`
	Retired     bool     `json:"retired,omitempty"`
	ChangedFrom float64  `json:"changed_from,omitempty"`
	TagsOnly    bool     `json:"tags_only,omitempty"`
	VB          []byte   `json:"vb,omitempty"`
	PVB         []byte   `json:"pvb,omitempty"`
	TagsChanged bool     `json:"tags_changed,omitempty"`
	Tags        []string `json:"tags,omitempty"`
	PrevTags    []string `json:"prev_tags,omitempty"`
}

// EncodeVerts flattens vertices into wire triples.
func EncodeVerts(verts []trajectory.Vertex) [][3]float64 {
	out := make([][3]float64, len(verts))
	for i, v := range verts {
		out[i] = [3]float64{v.X, v.Y, v.T}
	}
	return out
}

// PackVerts packs vertices into the shard link's binary form.
func PackVerts(verts []trajectory.Vertex) []byte {
	out := make([]byte, packedVertex*len(verts))
	for i, v := range verts {
		b := out[packedVertex*i:]
		binary.LittleEndian.PutUint64(b, math.Float64bits(v.X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(v.Y))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(v.T))
	}
	return out
}

// wireVerts rebuilds an item's vertices from whichever form it carries
// (nil for neither — a pure tag flip carries no motion).
func wireVerts(verts [][3]float64, vb []byte) ([]trajectory.Vertex, error) {
	switch {
	case len(vb) == 0:
		if len(verts) == 0 {
			return nil, nil
		}
		out := make([]trajectory.Vertex, len(verts))
		for i, v := range verts {
			out[i] = trajectory.Vertex{X: v[0], Y: v[1], T: v[2]}
		}
		return out, nil
	case len(verts) > 0:
		return nil, fmt.Errorf("%w: both verts and vb", ErrBadWire)
	case len(vb)%packedVertex != 0:
		return nil, fmt.Errorf("%w: vb holds %d bytes, not a multiple of %d", ErrBadWire, len(vb), packedVertex)
	}
	out := make([]trajectory.Vertex, len(vb)/packedVertex)
	for i := range out {
		b := vb[packedVertex*i:]
		out[i] = trajectory.Vertex{
			X: math.Float64frombits(binary.LittleEndian.Uint64(b)),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			T: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		}
	}
	return out, nil
}

// WireTrajectory rebuilds and validates one trajectory from either form.
func WireTrajectory(oid int64, verts [][3]float64, vb []byte) (*trajectory.Trajectory, error) {
	vs, err := wireVerts(verts, vb)
	if err != nil {
		return nil, err
	}
	return trajectory.New(oid, vs)
}

// PackUpdates flattens an update batch onto the shard link.
func PackUpdates(updates []mod.Update) []WireUpdate {
	out := make([]WireUpdate, len(updates))
	for i, u := range updates {
		out[i] = WireUpdate{OID: u.OID, VB: PackVerts(u.Verts), Tags: u.Tags, Retire: u.Retire}
	}
	return out
}

// DecodeUpdates rebuilds an update batch from the wire; packed says
// whether the surface speaks the shard link's form (the gateway does
// not). Validation of the vertices themselves stays with mod.ApplyUpdates.
func DecodeUpdates(wire []WireUpdate, packed bool) ([]mod.Update, error) {
	out := make([]mod.Update, len(wire))
	for i, wu := range wire {
		verts, err := wireVerts(wu.Verts, wu.VB)
		if err == nil && len(wu.VB) > 0 && !packed {
			err = fmt.Errorf("%w: vb is the shard link's form, send verts", ErrBadWire)
		}
		if err != nil {
			return nil, fmt.Errorf("update %d (oid %d): %w", i, wu.OID, err)
		}
		out[i] = mod.Update{OID: wu.OID, Verts: verts, Tags: wu.Tags, Retire: wu.Retire}
	}
	return out, nil
}

// EncodeOutcomes flattens applied outcomes onto the wire without their
// plans: what each update did, as the gateway's ingest reply tells it.
func EncodeOutcomes(applied []mod.Applied) []WireApplied {
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
		out[i] = wa
	}
	return out
}

// EncodeApplied is EncodeOutcomes with the plans a router cannot rebuild
// from its updates packed: pvb, the superseded plan, of a revision, an
// extension or a retirement, and vb of a tag flip; an insert packs none.
func EncodeApplied(applied []mod.Applied) []WireApplied {
	out := EncodeOutcomes(applied)
	for i, a := range applied {
		switch {
		case a.Inserted:
		case out[i].TagsOnly:
			out[i].VB = PackVerts(a.Traj.Verts)
		default:
			out[i].PVB = PackVerts(a.Prev.Verts)
		}
	}
	return out
}

// DecodeApplied rebuilds wire[i], the outcome of updates[i], copying an
// insert's plan from its update and splicing a revision's (mod.Splice); a
// reply that does not fit its updates is ErrProtocol. With nil updates the
// items are outcomes alone (EncodeOutcomes) and no plan is read.
func DecodeApplied(wire []WireApplied, updates []mod.Update) ([]mod.Applied, error) {
	if updates != nil && len(wire) > len(updates) {
		return nil, fmt.Errorf("%w: %d outcomes for %d updates", ErrProtocol, len(wire), len(updates))
	}
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
		if updates != nil {
			if err := rebuildPlans(&a, wa, updates[i]); err != nil {
				return nil, fmt.Errorf("%w: outcome %d (oid %d): %w", ErrProtocol, i, wa.OID, err)
			}
		}
		out[i] = a
	}
	return out, nil
}

// rebuildPlans sets a's plans from the one wa packs and the update u it
// answers.
func rebuildPlans(a *mod.Applied, wa WireApplied, u mod.Update) (err error) {
	packed := wa.PVB
	if wa.TagsOnly {
		packed = wa.VB
	}
	switch {
	case u.OID != wa.OID:
		return fmt.Errorf("it answers an update for %d", u.OID)
	case wa.Inserted:
		a.Traj, err = trajectory.New(wa.OID, slices.Clone(u.Verts))
		return err
	case len(packed) == 0:
		return errors.New("no packed plan")
	}
	plan, err := WireTrajectory(wa.OID, nil, packed)
	switch {
	case err != nil:
	case wa.TagsOnly:
		a.Traj = plan
	case wa.Retired:
		a.Prev = plan
	default:
		var changedFrom float64
		a.Prev = plan
		if a.Traj, changedFrom, err = mod.Splice(plan, u.Verts); err == nil && changedFrom != wa.ChangedFrom {
			err = fmt.Errorf("the splice changes from t=%g, the reply says t=%g", changedFrom, wa.ChangedFrom)
		}
	}
	return err
}
