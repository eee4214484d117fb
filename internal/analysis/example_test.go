package analysis_test

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
)

// ExampleEval evaluates the analytical model at the all-or-nothing
// boundary: RLC decodes nothing below N blocks while PLC already
// delivers a level and a half in expectation.
func ExampleEval() {
	levels, err := core.UniformLevels(4, 5) // N = 20
	if err != nil {
		panic(err)
	}
	dist := core.NewUniformDistribution(4)
	rlc, err := analysis.Eval(core.RLC, levels, dist, 19)
	if err != nil {
		panic(err)
	}
	plc, err := analysis.Eval(core.PLC, levels, dist, 19)
	if err != nil {
		panic(err)
	}
	fmt.Printf("at M = N-1: RLC E(X) = %.2f, PLC E(X) = %.2f\n", rlc.EX, plc.EX)
	// Output:
	// at M = N-1: RLC E(X) = 0.00, PLC E(X) = 1.50
}

// ExampleMinBlocks answers the provisioning question: how many caches must
// survive for the critical level to decode with 99% probability?
func ExampleMinBlocks() {
	levels, err := core.NewLevels(5, 20)
	if err != nil {
		panic(err)
	}
	dist := core.PriorityDistribution{0.6, 0.4}
	m, err := analysis.MinBlocks(core.PLC, levels, dist, 1, 0.99, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("the critical level needs %d surviving coded blocks\n", m)
	// Output:
	// the critical level needs 15 surviving coded blocks
}
