// Package geom provides the 2D computational-geometry substrate used by the
// uncertain-trajectory machinery: points, vectors, segments, disks,
// circle-circle intersection (lens) areas, Minkowski sums of disks, and
// axis-aligned bounding boxes.
//
// All coordinates are float64 and units are whatever the caller chooses
// (the benchmark harness uses miles and minutes, matching the paper's
// evaluation). Functions are pure and allocation-free unless documented
// otherwise.
package geom

import (
	"fmt"
	"math"
)

// Eps is the default absolute tolerance for geometric predicates.
const Eps = 1e-12

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Vec is a displacement in the plane. Point and Vec are distinct types to
// keep affine and linear quantities from being mixed accidentally.
type Vec struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// String implements fmt.Stringer.
func (v Vec) String() string { return fmt.Sprintf("<%g, %g>", v.X, v.Y) }

// Add translates p by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the displacement from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates between p (s=0) and q (s=1).
func (p Point) Lerp(q Point, s float64) Point {
	return Point{p.X + s*(q.X-p.X), p.Y + s*(q.Y-p.Y)}
}

// Add returns the vector sum v+w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns the vector difference v-w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{s * v.X, s * v.Y} }

// Dot returns the dot product v·w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Len returns the Euclidean norm of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// LenSq returns the squared Euclidean norm of v.
func (v Vec) LenSq() float64 { return v.X*v.X + v.Y*v.Y }

// Unit returns v normalized to length 1. The zero vector is returned
// unchanged.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l < Eps {
		return Vec{}
	}
	return Vec{v.X / l, v.Y / l}
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Len returns the length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// At returns the point at parameter u in [0,1] along the segment.
func (s Segment) At(u float64) Point { return s.A.Lerp(s.B, u) }

// Dir returns the (unnormalized) direction vector B-A.
func (s Segment) Dir() Vec { return s.B.Sub(s.A) }

// ClosestParam returns the parameter u in [0,1] of the point on the segment
// closest to p.
func (s Segment) ClosestParam(p Point) float64 {
	d := s.Dir()
	den := d.LenSq()
	if den < Eps {
		return 0
	}
	u := p.Sub(s.A).Dot(d) / den
	return clamp01(u)
}

func clamp01(u float64) float64 {
	switch {
	case u < 0:
		return 0
	case u > 1:
		return 1
	default:
		return u
	}
}

// Disk is a closed disk with center C and radius R (the paper's uncertainty
// zone at a time instant).
type Disk struct {
	C Point
	R float64
}

// Contains reports whether p lies inside or on the disk.
func (d Disk) Contains(p Point) bool { return d.C.DistSq(p) <= d.R*d.R+Eps }

// Area returns the area of the disk.
func (d Disk) Area() float64 { return math.Pi * d.R * d.R }

// Intersects reports whether two disks share at least one point.
func (d Disk) Intersects(e Disk) bool {
	rr := d.R + e.R
	return d.C.DistSq(e.C) <= rr*rr+Eps
}

// MinDistTo returns the smallest distance from p to any point of the disk
// (0 if p is inside), the paper's R^min when p is the crisp query location.
func (d Disk) MinDistTo(p Point) float64 {
	return math.Max(0, d.C.Dist(p)-d.R)
}

// LensArea returns the area of the intersection of two disks (the circular
// "lens"). It is the geometric core of the uniform within-distance
// probability, Eq. (4) of the paper.
//
// The formula handles all degenerate configurations: disjoint disks return
// 0, containment returns the smaller disk's area.
func LensArea(d, e Disk) float64 {
	if d.R < 0 || e.R < 0 {
		return 0
	}
	dist := d.C.Dist(e.C)
	if dist >= d.R+e.R {
		return 0 // disjoint
	}
	if dist <= math.Abs(d.R-e.R) {
		r := math.Min(d.R, e.R)
		return math.Pi * r * r // containment
	}
	// Standard two-circular-segment decomposition.
	r1, r2 := d.R, e.R
	d2 := dist * dist
	alpha := 2 * math.Acos(clampUnit((d2+r1*r1-r2*r2)/(2*dist*r1)))
	beta := 2 * math.Acos(clampUnit((d2+r2*r2-r1*r1)/(2*dist*r2)))
	return 0.5*r1*r1*(alpha-math.Sin(alpha)) + 0.5*r2*r2*(beta-math.Sin(beta))
}

func clampUnit(x float64) float64 {
	switch {
	case x < -1:
		return -1
	case x > 1:
		return 1
	default:
		return x
	}
}

// ChordHalfAngle returns the half-angle theta (at the center of a circle of
// radius rho centered at distance d from the origin) subtended by the part
// of that circle lying inside the disk of radius Rd centered at the origin.
// It returns:
//
//	0        if the circle lies entirely outside the disk,
//	math.Pi  if the circle lies entirely inside the disk,
//	acos((d² + rho² − Rd²)/(2·d·rho)) otherwise.
//
// This is the kernel of the generic radial within-distance probability
// (Section 3.1): the fraction of the circle inside the query disk is
// theta/pi.
func ChordHalfAngle(d, rho, rd float64) float64 {
	if rho <= 0 {
		if d <= rd {
			return math.Pi
		}
		return 0
	}
	if d <= 0 {
		if rho <= rd {
			return math.Pi
		}
		return 0
	}
	if d+rho <= rd {
		return math.Pi // fully inside
	}
	if d-rho >= rd || rho-d >= rd {
		if rho-d >= rd {
			return 0 // query disk strictly inside the circle: no part of circle inside
		}
		return 0 // fully outside
	}
	return math.Acos(clampUnit((d*d + rho*rho - rd*rd) / (2 * d * rho)))
}

// AABB is an axis-aligned bounding box, optionally extended with a time
// dimension by the spatial index package.
type AABB struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyAABB returns an inverted box that behaves as the identity for Union.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{inf, inf, -inf, -inf}
}

// AABBOf returns the bounding box of a set of points.
func AABBOf(pts ...Point) AABB {
	b := EmptyAABB()
	for _, p := range pts {
		b = b.ExtendPoint(p)
	}
	return b
}

// IsEmpty reports whether the box contains no points.
func (b AABB) IsEmpty() bool { return b.MinX > b.MaxX || b.MinY > b.MaxY }

// ExtendPoint grows the box to include p.
func (b AABB) ExtendPoint(p Point) AABB {
	return AABB{
		min(b.MinX, p.X), min(b.MinY, p.Y),
		max(b.MaxX, p.X), max(b.MaxY, p.Y),
	}
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return AABB{
		min(b.MinX, o.MinX), min(b.MinY, o.MinY),
		max(b.MaxX, o.MaxX), max(b.MaxY, o.MaxY),
	}
}

// Intersects reports whether two boxes overlap (closed-boundary semantics).
func (b AABB) Intersects(o AABB) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX &&
		b.MinY <= o.MaxY && o.MinY <= b.MaxY
}

// Area returns the area of the box (0 if empty).
func (b AABB) Area() float64 {
	if b.IsEmpty() {
		return 0
	}
	return (b.MaxX - b.MinX) * (b.MaxY - b.MinY)
}

// Expand grows the box by m on every side. Useful for turning an expected-
// location box into an uncertainty-aware box (m = uncertainty radius).
func (b AABB) Expand(m float64) AABB {
	if b.IsEmpty() {
		return b
	}
	return AABB{b.MinX - m, b.MinY - m, b.MaxX + m, b.MaxY + m}
}

// Center returns the center point of the box.
func (b AABB) Center() Point {
	return Point{(b.MinX + b.MaxX) / 2, (b.MinY + b.MaxY) / 2}
}

// MinDistTo returns the smallest distance from p to any point in the box
// (0 if p is inside). Used by best-first kNN search in the spatial index.
func (b AABB) MinDistTo(p Point) float64 {
	dx := max(0, b.MinX-p.X, p.X-b.MaxX)
	dy := max(0, b.MinY-p.Y, p.Y-b.MaxY)
	return math.Hypot(dx, dy)
}
