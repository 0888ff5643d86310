package uql_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/trajectory"
	"repro/internal/uql"
)

// Example runs the paper's Section 4 query sketch against a three-object
// MOD: the stationary object 1 sits within the uncertainty zone of the
// query 100 throughout, object 2 never comes close. Every statement
// compiles to an engine.Request, answered by Engine.Do.
func Example() {
	store, err := mod.NewUniformStore(0.5)
	if err != nil {
		log.Fatal(err)
	}
	add := func(oid int64, x float64) {
		tr, err := trajectory.New(oid, []trajectory.Vertex{
			{X: x, Y: 0, T: 0}, {X: x, Y: 0, T: 60},
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := store.Insert(tr); err != nil {
			log.Fatal(err)
		}
	}
	add(100, 0) // query
	add(1, 2)   // possible NN (distance 2, zone top 2+4·0.5 = 4)
	add(2, 30)  // never possible

	eng := engine.New(1)
	for _, src := range []string{
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 100, Time) > 0",
		"SELECT 2 FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityNN(2, 100, Time) > 0",
		"SELECT T FROM MOD WHERE FORALL Time IN [0, 60] AND CertainNN(T, 100, Time) > 0",
	} {
		st, err := uql.Parse(src)
		if err != nil {
			log.Fatal(err)
		}
		req := uql.Compile(st)
		res, err := eng.Do(context.Background(), store, req)
		if err != nil {
			log.Fatal(err)
		}
		if res.IsBool {
			fmt.Printf("%s p=%g: %v\n", req.Kind, req.P, res.Bool)
		} else {
			fmt.Printf("%s p=%g: %v\n", req.Kind, req.P, res.OIDs)
		}
	}
	// Output:
	// UQ31 p=0: [1]
	// UQ12 p=0: false
	// UQ32 p=1: [1]
}
