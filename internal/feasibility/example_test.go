package feasibility_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/feasibility"
)

// ExampleSolve turns an operational requirement into a priority
// distribution.
func ExampleSolve() {
	levels, err := core.NewLevels(5, 20)
	if err != nil {
		panic(err)
	}
	sol, err := feasibility.Solve(feasibility.Problem{
		Scheme: core.PLC,
		Levels: levels,
		// The critical 5 blocks must be expected to decode from 8 caches.
		Decoding: []feasibility.Constraint{{M: 8, MinLevels: 1}},
	}, feasibility.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("feasible: %v, critical share p1 > 0.5: %v\n",
		sol.Feasible, sol.P[0] > 0.5)
	// Output:
	// feasible: true, critical share p1 > 0.5: true
}
