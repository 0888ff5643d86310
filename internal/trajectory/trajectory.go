// Package trajectory implements the paper's motion model (Section 2.1):
// a trajectory is a function Time → R² represented as a sequence of 3D
// (x, y, t) points with linear interpolation between consecutive vertices
// (Eq. 1), carried by a unique object ID. The uncertainty-disk radius r
// and the location pdf inside the disk are shared by the whole set, so the
// mod store holds them, not the trajectory.
package trajectory

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/geom"
)

// Validation errors.
var (
	ErrTooFewVertices  = errors.New("trajectory: need at least two vertices")
	ErrNonIncreasing   = errors.New("trajectory: vertex times must be strictly increasing")
	ErrNonFinite       = errors.New("trajectory: vertex coordinates must be finite")
	ErrTruncatedStream = errors.New("trajectory: truncated binary stream")
)

// Vertex is one 3D sample (2D space plus time) of a trajectory.
type Vertex struct {
	X, Y, T float64
}

// Point returns the spatial component of the vertex.
func (v Vertex) Point() geom.Point { return geom.Point{X: v.X, Y: v.Y} }

// Trajectory is a piecewise-linear motion plan with a unique object ID.
// Between consecutive vertices the object moves along a straight segment at
// the constant speed of Eq. 1.
type Trajectory struct {
	OID   int64
	Verts []Vertex
}

// New constructs a validated trajectory.
func New(oid int64, verts []Vertex) (*Trajectory, error) {
	tr := &Trajectory{OID: oid, Verts: verts}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Validate checks the structural invariants: at least two vertices,
// strictly increasing timestamps, finite coordinates.
func (tr *Trajectory) Validate() error {
	if len(tr.Verts) < 2 {
		return ErrTooFewVertices
	}
	for i, v := range tr.Verts {
		if math.IsNaN(v.X) || math.IsInf(v.X, 0) ||
			math.IsNaN(v.Y) || math.IsInf(v.Y, 0) ||
			math.IsNaN(v.T) || math.IsInf(v.T, 0) {
			return fmt.Errorf("%w: vertex %d", ErrNonFinite, i)
		}
		if i > 0 && v.T <= tr.Verts[i-1].T {
			return fmt.Errorf("%w: vertex %d (t=%g after t=%g)", ErrNonIncreasing, i, v.T, tr.Verts[i-1].T)
		}
	}
	return nil
}

// TimeSpan returns the first and last timestamps.
func (tr *Trajectory) TimeSpan() (tb, te float64) {
	return tr.Verts[0].T, tr.Verts[len(tr.Verts)-1].T
}

// At returns the expected location at time t by linear interpolation,
// clamping to the endpoints outside the time span.
func (tr *Trajectory) At(t float64) geom.Point {
	n := len(tr.Verts)
	if t <= tr.Verts[0].T {
		return tr.Verts[0].Point()
	}
	if t >= tr.Verts[n-1].T {
		return tr.Verts[n-1].Point()
	}
	i := tr.segmentIndex(t)
	a, b := tr.Verts[i], tr.Verts[i+1]
	u := (t - a.T) / (b.T - a.T)
	return a.Point().Lerp(b.Point(), u)
}

// segmentIndex returns i such that Verts[i].T <= t < Verts[i+1].T, assuming
// t lies strictly inside the span.
func (tr *Trajectory) segmentIndex(t float64) int {
	i := IndexAfter(tr.Verts, t) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(tr.Verts)-1 {
		i = len(tr.Verts) - 2
	}
	return i
}

// IndexAfter returns the index of the first of verts (in time order) whose
// timestamp is after t, or len(verts) if none is: sort.Search with its
// predicate inlined, since At and the pre-pass's distances run it per
// evaluation.
func IndexAfter(verts []Vertex, t float64) int {
	i, j := 0, len(verts)
	for i < j {
		h := int(uint(i+j) >> 1)
		if verts[h].T > t {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// VelocityAt returns the velocity vector on the segment active at time t
// (Eq. 1 divided into components). At a vertex the following segment's
// velocity is returned; outside the span the velocity is zero.
func (tr *Trajectory) VelocityAt(t float64) geom.Vec {
	tb, te := tr.TimeSpan()
	if t < tb || t >= te {
		if t == te { // final instant: use last segment
			i := len(tr.Verts) - 2
			return tr.segmentVelocity(i)
		}
		return geom.Vec{}
	}
	return tr.segmentVelocity(tr.segmentIndex(t))
}

func (tr *Trajectory) segmentVelocity(i int) geom.Vec {
	a, b := tr.Verts[i], tr.Verts[i+1]
	dt := b.T - a.T
	return geom.Vec{X: (b.X - a.X) / dt, Y: (b.Y - a.Y) / dt}
}

// NumSegments returns the number of linear segments.
func (tr *Trajectory) NumSegments() int { return len(tr.Verts) - 1 }

// Segment returns the i-th segment as a spatial segment plus its time
// bounds.
func (tr *Trajectory) Segment(i int) (seg geom.Segment, t0, t1 float64) {
	a, b := tr.Verts[i], tr.Verts[i+1]
	return geom.Segment{A: a.Point(), B: b.Point()}, a.T, b.T
}

// VertexTimesWithin returns the vertex timestamps strictly inside (tb, te),
// used to split query windows into elementary intervals on which the motion
// is a single linear segment.
func (tr *Trajectory) VertexTimesWithin(tb, te float64) []float64 {
	var out []float64
	for _, v := range tr.Verts {
		if v.T > tb && v.T < te {
			out = append(out, v.T)
		}
	}
	return out
}

// BoundingBox returns the spatial bounding box of the vertices. Because
// motion is piecewise linear, it bounds the whole expected path.
func (tr *Trajectory) BoundingBox() geom.AABB {
	b := geom.EmptyAABB()
	for _, v := range tr.Verts {
		b = b.ExtendPoint(v.Point())
	}
	return b
}

// --- binary codec ---
//
// Layout (little endian): oid int64, vertex count uint32, then per vertex
// three float64 (x, y, t). The codec carries only the crisp trajectory;
// uncertainty parameters are serialized by the mod store, which owns the
// set-wide radius/pdf (the paper assumes r and pdf are shared by the set).

// AppendBinary appends the trajectory's encoding to b and returns the
// extended slice: a writer of many trajectories encodes them through one
// buffer.
func (tr *Trajectory) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(tr.OID))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tr.Verts)))
	for _, v := range tr.Verts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Y))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.T))
	}
	return b
}

// ReadBinary deserializes a trajectory from r and validates it.
func ReadBinary(r io.Reader) (*Trajectory, error) {
	var oid int64
	if err := binary.Read(r, binary.LittleEndian, &oid); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %v", ErrTruncatedStream, err)
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncatedStream, err)
	}
	if n > 1<<24 {
		return nil, fmt.Errorf("trajectory: implausible vertex count %d", n)
	}
	verts := make([]Vertex, n)
	for i := range verts {
		var b [3]float64
		if err := binary.Read(r, binary.LittleEndian, &b); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncatedStream, err)
		}
		verts[i] = Vertex{X: b[0], Y: b[1], T: b[2]}
	}
	return New(oid, verts)
}
