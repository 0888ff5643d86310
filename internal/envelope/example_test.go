package envelope_test

import (
	"fmt"

	"repro/internal/envelope"
	"repro/internal/trajectory"
)

// ExampleLowerEnvelope builds the time-parameterized nearest-neighbor
// schedule for a stationary query and two movers: object 2 sweeps past and
// takes over the envelope around the middle of the window.
func ExampleLowerEnvelope() {
	mk := func(oid int64, x0, y0, x1, y1 float64) *trajectory.Trajectory {
		tr, _ := trajectory.New(oid, []trajectory.Vertex{
			{X: x0, Y: y0, T: 0}, {X: x1, Y: y1, T: 60},
		})
		return tr
	}
	query := mk(100, 0, 0, 0, 0)
	near := mk(1, 5, 0, 5, 0)       // constant distance 5
	sweeper := mk(2, 20, 1, -20, 1) // dips to distance ~1 at t = 30

	fns, _ := envelope.BuildDistanceFuncs(
		[]*trajectory.Trajectory{query, near, sweeper}, query, 0, 60)
	env, _ := envelope.LowerEnvelope(fns, 0, 60)
	for _, iv := range env.Intervals {
		fmt.Printf("Tr%d on [%.2f, %.2f]\n", iv.ID, iv.T0, iv.T1)
	}
	// Output:
	// Tr1 on [0.00, 22.65]
	// Tr2 on [22.65, 37.35]
	// Tr1 on [37.35, 60.00]
}

// ExampleEnv2 shows the pairwise primitive directly.
func ExampleEnv2() {
	mk := func(oid int64, x0, x1 float64) *trajectory.Trajectory {
		tr, _ := trajectory.New(oid, []trajectory.Vertex{
			{X: x0, Y: 0, T: 0}, {X: x1, Y: 0, T: 60},
		})
		return tr
	}
	query := mk(100, 0, 0)
	f, _ := envelope.NewDistanceFunc(1, mk(1, 10, -10), query, 0, 60) // V-shape
	g, _ := envelope.NewDistanceFunc(2, mk(2, 5, 5), query, 0, 60)    // constant 5

	for _, iv := range envelope.Env2(nil, f, g, 0, 60) {
		fmt.Printf("Tr%d on [%.0f, %.0f]\n", iv.ID, iv.T0, iv.T1)
	}
	// Output:
	// Tr2 on [0, 15]
	// Tr1 on [15, 45]
	// Tr2 on [45, 60]
}
