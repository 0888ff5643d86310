package geom

import (
	"math"
	"testing"
)

// The AABB kernels use the builtin min/max where they used math.Min and
// math.Max. Index node bounds are compared bit for bit against a reference
// that still uses the math functions (internal/sindex), so the two must
// agree wherever the index can reach: this pins where they do, and the one
// corner where they do not.

var minmaxValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1.5, -2.5, math.MaxFloat64, -math.SmallestNonzeroFloat64,
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBuiltinMinMaxMatchMath: on numbers — infinities and both zeros
// included — the builtins return math.Min/math.Max's bits. With a NaN
// operand the builtins always return a NaN (of unspecified payload), and so
// do the math functions except where their documented special-case order
// lets an infinity win: Min(-Inf, NaN) = -Inf and Max(+Inf, NaN) = +Inf.
func TestBuiltinMinMaxMatchMath(t *testing.T) {
	for _, a := range minmaxValues {
		for _, b := range minmaxValues {
			lo, hi := min(a, b), max(a, b)
			refLo, refHi := math.Min(a, b), math.Max(a, b)
			if math.IsNaN(a) || math.IsNaN(b) {
				if !math.IsNaN(lo) || !math.IsNaN(hi) {
					t.Errorf("min/max(%v, %v) = %v, %v: a NaN operand must give NaN", a, b, lo, hi)
				}
				if wantInf := math.IsInf(a, -1) || math.IsInf(b, -1); math.IsNaN(refLo) == wantInf {
					t.Errorf("math.Min(%v, %v) = %v", a, b, refLo)
				}
				if wantInf := math.IsInf(a, 1) || math.IsInf(b, 1); math.IsNaN(refHi) == wantInf {
					t.Errorf("math.Max(%v, %v) = %v", a, b, refHi)
				}
				continue
			}
			if !sameBits(lo, refLo) || !sameBits(hi, refHi) {
				t.Errorf("min/max(%v, %v) = %v, %v; math gives %v, %v", a, b, lo, hi, refLo, refHi)
			}
		}
	}
}

func mathUnion(b, o AABB) AABB {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return AABB{
		math.Min(b.MinX, o.MinX), math.Min(b.MinY, o.MinY),
		math.Max(b.MaxX, o.MaxX), math.Max(b.MaxY, o.MaxY),
	}
}

func mathExtendPoint(b AABB, p Point) AABB {
	return AABB{
		math.Min(b.MinX, p.X), math.Min(b.MinY, p.Y),
		math.Max(b.MaxX, p.X), math.Max(b.MaxY, p.Y),
	}
}

func mathMinDistTo(b AABB, p Point) float64 {
	dx := math.Max(0, math.Max(b.MinX-p.X, p.X-b.MaxX))
	dy := math.Max(0, math.Max(b.MinY-p.Y, p.Y-b.MaxY))
	return math.Hypot(dx, dy)
}

func sameBox(a, b AABB) bool {
	return sameBits(a.MinX, b.MinX) && sameBits(a.MinY, b.MinY) && sameBits(a.MaxX, b.MaxX) && sameBits(a.MaxY, b.MaxY)
}

// TestAABBKernelsMatchMathVersions: Union, ExtendPoint and MinDistTo give
// the bits the math.Min/math.Max versions gave, over every box and point
// with coordinates from the non-NaN values above (inverted and infinite
// boxes among them; finite probe points for MinDistTo) and with EmptyAABB
// on either side.
func TestAABBKernelsMatchMathVersions(t *testing.T) {
	vals := minmaxValues[1:]
	boxes := []AABB{EmptyAABB()}
	for _, x0 := range vals {
		for _, y0 := range vals {
			for _, x1 := range vals {
				boxes = append(boxes, AABB{x0, y0, x1, 3}, AABB{x0, y0, 3, x1}, AABB{-3, x0, y0, x1})
			}
		}
	}
	for _, b := range boxes {
		for _, o := range boxes {
			if got, want := b.Union(o), mathUnion(b, o); !sameBox(got, want) {
				t.Fatalf("%v.Union(%v) = %v, math version %v", b, o, got, want)
			}
		}
		for _, x := range vals {
			for _, y := range vals {
				p := Point{x, y}
				if got, want := b.ExtendPoint(p), mathExtendPoint(b, p); !sameBox(got, want) {
					t.Fatalf("%v.ExtendPoint(%v) = %v, math version %v", b, p, got, want)
				}
				if math.IsInf(x, 0) || math.IsInf(y, 0) {
					continue // Inf - Inf: the NaN corner pinned above
				}
				if got, want := b.MinDistTo(p), mathMinDistTo(b, p); !sameBits(got, want) {
					t.Fatalf("%v.MinDistTo(%v) = %v, math version %v", b, p, got, want)
				}
			}
		}
	}
}
