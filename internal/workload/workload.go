// Package workload generates the synthetic moving-object population used by
// the paper's evaluation (Section 5): a modified random-waypoint model over
// a 40 × 40 mile region where every object starts at a uniformly random
// position, picks a random direction and a speed uniform in [15, 60] mph,
// and all objects change their velocity vectors synchronously; the motion
// lasts 60 minutes.
//
// Distances are miles and times are minutes throughout, so speeds are
// converted to miles/minute internally. Generation is deterministic for a
// given seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// Config parameterizes the generator. The zero value is unusable; use
// DefaultConfig for the paper's setup.
type Config struct {
	// Region is the area of interest. Objects reflect off its boundary.
	Region geom.AABB
	// SpeedMinMPH and SpeedMaxMPH bound the uniformly drawn speeds, in
	// miles per hour.
	SpeedMinMPH, SpeedMaxMPH float64
	// DurationMin is the total motion duration in minutes.
	DurationMin float64
	// VelocityChanges is the number of synchronous velocity changes during
	// the motion; the trajectory has VelocityChanges+1 linear segments.
	// 0 yields a single segment.
	VelocityChanges int
	// Seed drives the deterministic RNG.
	Seed int64
}

// DefaultConfig returns the paper's evaluation setup: 40 × 40 mi² region,
// speeds uniform in [15, 60] mph, 60-minute duration, and 5 synchronous
// velocity changes (one every 10 minutes).
func DefaultConfig(seed int64) Config {
	return Config{
		Region:          geom.AABB{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40},
		SpeedMinMPH:     15,
		SpeedMaxMPH:     60,
		DurationMin:     60,
		VelocityChanges: 5,
		Seed:            seed,
	}
}

// SingleSegmentConfig is DefaultConfig without velocity changes, matching
// the single-segment assumption of Section 3.2's derivations.
func SingleSegmentConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.VelocityChanges = 0
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Region.IsEmpty() || c.Region.Area() == 0 {
		return fmt.Errorf("workload: empty region")
	}
	if c.SpeedMinMPH <= 0 || c.SpeedMaxMPH < c.SpeedMinMPH {
		return fmt.Errorf("workload: bad speed range [%g, %g]", c.SpeedMinMPH, c.SpeedMaxMPH)
	}
	if c.DurationMin <= 0 {
		return fmt.Errorf("workload: nonpositive duration %g", c.DurationMin)
	}
	if c.VelocityChanges < 0 {
		return fmt.Errorf("workload: negative velocity changes")
	}
	return nil
}

// Generate produces n trajectories with OIDs 1..n under the configuration.
func Generate(c Config, n int) ([]*trajectory.Trajectory, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("workload: negative count %d", n)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	segDur := c.DurationMin / float64(c.VelocityChanges+1)
	out := make([]*trajectory.Trajectory, 0, n)
	for i := 0; i < n; i++ {
		verts := make([]trajectory.Vertex, 0, c.VelocityChanges+2)
		x := c.Region.MinX + rng.Float64()*(c.Region.MaxX-c.Region.MinX)
		y := c.Region.MinY + rng.Float64()*(c.Region.MaxY-c.Region.MinY)
		t := 0.0
		verts = append(verts, trajectory.Vertex{X: x, Y: y, T: t})
		for s := 0; s <= c.VelocityChanges; s++ {
			speed := (c.SpeedMinMPH + rng.Float64()*(c.SpeedMaxMPH-c.SpeedMinMPH)) / 60 // mi/min
			dir := 2 * math.Pi * rng.Float64()
			vx, vy := speed*math.Cos(dir), speed*math.Sin(dir)
			x, y = advanceReflect(c.Region, x, y, vx, vy, segDur)
			t += segDur
			verts = append(verts, trajectory.Vertex{X: x, Y: y, T: t})
		}
		tr, err := trajectory.New(int64(i+1), verts)
		if err != nil {
			return nil, fmt.Errorf("workload: internal generation error: %w", err)
		}
		out = append(out, tr)
	}
	return out, nil
}

// ClusterConfig parameterizes GenerateClustered: a hotspot workload in
// which objects start near one of a few attraction centers instead of
// uniformly — city-like densities that stress the pruning analysis
// (extension experiment E4, beyond the paper's uniform random waypoint).
type ClusterConfig struct {
	Base Config
	// Clusters is the number of hotspots (>= 1), placed uniformly at
	// random in the region.
	Clusters int
	// Spread is the standard deviation (in region units) of the Gaussian
	// start-position scatter around each hotspot.
	Spread float64
}

// GenerateClustered produces n trajectories whose start positions scatter
// around Clusters hotspots; motion follows the same synchronous
// random-waypoint rules as Generate.
func GenerateClustered(c ClusterConfig, n int) ([]*trajectory.Trajectory, error) {
	if err := c.Base.Validate(); err != nil {
		return nil, err
	}
	if c.Clusters < 1 {
		return nil, fmt.Errorf("workload: need at least one cluster")
	}
	if c.Spread <= 0 {
		return nil, fmt.Errorf("workload: nonpositive spread %g", c.Spread)
	}
	if n < 0 {
		return nil, fmt.Errorf("workload: negative count %d", n)
	}
	rng := rand.New(rand.NewSource(c.Base.Seed))
	b := c.Base.Region
	centers := make([]geom.Point, c.Clusters)
	for i := range centers {
		centers[i] = geom.Point{
			X: b.MinX + rng.Float64()*(b.MaxX-b.MinX),
			Y: b.MinY + rng.Float64()*(b.MaxY-b.MinY),
		}
	}
	segDur := c.Base.DurationMin / float64(c.Base.VelocityChanges+1)
	out := make([]*trajectory.Trajectory, 0, n)
	for i := 0; i < n; i++ {
		ctr := centers[rng.Intn(len(centers))]
		x := reflect1D(ctr.X+rng.NormFloat64()*c.Spread, b.MinX, b.MaxX)
		y := reflect1D(ctr.Y+rng.NormFloat64()*c.Spread, b.MinY, b.MaxY)
		t := 0.0
		verts := []trajectory.Vertex{{X: x, Y: y, T: t}}
		for s := 0; s <= c.Base.VelocityChanges; s++ {
			speed := (c.Base.SpeedMinMPH + rng.Float64()*(c.Base.SpeedMaxMPH-c.Base.SpeedMinMPH)) / 60
			dir := 2 * math.Pi * rng.Float64()
			x, y = advanceReflect(b, x, y, speed*math.Cos(dir), speed*math.Sin(dir), segDur)
			t += segDur
			verts = append(verts, trajectory.Vertex{X: x, Y: y, T: t})
		}
		tr, err := trajectory.New(int64(i+1), verts)
		if err != nil {
			return nil, fmt.Errorf("workload: internal generation error: %w", err)
		}
		out = append(out, tr)
	}
	return out, nil
}

// advanceReflect moves (x, y) with velocity (vx, vy) for dt, reflecting off
// the region boundary so objects remain inside (the "modified" part of the
// paper's modified random waypoint model keeps objects in the region of
// interest). The reflected endpoint is returned; the intermediate bounce
// points are not materialized as vertices, which keeps the per-interval
// motion linear, matching the model the paper's algorithms assume.
func advanceReflect(b geom.AABB, x, y, vx, vy, dt float64) (float64, float64) {
	nx := reflect1D(x+vx*dt, b.MinX, b.MaxX)
	ny := reflect1D(y+vy*dt, b.MinY, b.MaxY)
	return nx, ny
}

// reflect1D folds a coordinate into [lo, hi] by repeated reflection.
func reflect1D(v, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	w := hi - lo
	// Map into a 2w-periodic triangle wave.
	u := math.Mod(v-lo, 2*w)
	if u < 0 {
		u += 2 * w
	}
	if u > w {
		u = 2*w - u
	}
	return lo + u
}
