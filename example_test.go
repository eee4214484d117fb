package prlc_test

import (
	"fmt"
	"math/rand"

	prlc "repro"
)

// Example encodes three priority levels with PLC and shows partial
// recovery: the critical level decodes long before the stream completes.
func Example() {
	levels, err := prlc.NewLevels(2, 4, 6) // 12 source blocks
	if err != nil {
		panic(err)
	}
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = []byte{byte(i), byte(i * 2)}
	}
	enc, err := prlc.NewEncoder(prlc.PLC, levels, sources)
	if err != nil {
		panic(err)
	}
	dec, err := prlc.NewDecoder(prlc.PLC, levels, 2)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(7))
	dist := prlc.PriorityDistribution{0.5, 0.25, 0.25}
	firstLevelAt := 0
	for !dec.Complete() {
		blocks, err := enc.EncodeBatch(rng, dist, 1)
		if err != nil {
			panic(err)
		}
		if _, err := dec.Add(blocks[0]); err != nil {
			panic(err)
		}
		if firstLevelAt == 0 && dec.DecodedLevels() >= 1 {
			firstLevelAt = dec.Received()
		}
	}
	fmt.Printf("critical level decoded after %d blocks, everything after %d\n",
		firstLevelAt, dec.Received())
	payload, err := dec.Source(0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("source 0 = %v\n", payload)
	// Output:
	// critical level decoded after 4 blocks, everything after 24
	// source 0 = [0 0]
}

// ExampleExpectedDecodedLevels evaluates the analytical model at the
// all-or-nothing boundary: RLC decodes nothing below N blocks while PLC
// already delivers a level and a half in expectation.
func ExampleExpectedDecodedLevels() {
	levels, err := prlc.UniformLevels(4, 5) // N = 20
	if err != nil {
		panic(err)
	}
	dist := prlc.UniformDistribution(4)
	rlc, err := prlc.ExpectedDecodedLevels(prlc.RLC, levels, dist, 19)
	if err != nil {
		panic(err)
	}
	plc, err := prlc.ExpectedDecodedLevels(prlc.PLC, levels, dist, 19)
	if err != nil {
		panic(err)
	}
	fmt.Printf("at M = N-1: RLC E(X) = %.2f, PLC E(X) = %.2f\n", rlc.EX, plc.EX)
	// Output:
	// at M = N-1: RLC E(X) = 0.00, PLC E(X) = 1.50
}

// ExampleDesignDistribution turns an operational requirement into a
// priority distribution.
func ExampleDesignDistribution() {
	levels, err := prlc.NewLevels(5, 20)
	if err != nil {
		panic(err)
	}
	sol, err := prlc.DesignDistribution(prlc.DesignProblem{
		Scheme: prlc.PLC,
		Levels: levels,
		// The critical 5 blocks must be expected to decode from 8 caches.
		Decoding: []prlc.DecodingConstraint{{M: 8, MinLevels: 1}},
	}, prlc.DesignOptions{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("feasible: %v, critical share p1 > 0.5: %v\n",
		sol.Feasible, sol.P[0] > 0.5)
	// Output:
	// feasible: true, critical share p1 > 0.5: true
}

// ExampleMinBlocks answers the provisioning question: how many caches must
// survive for the critical level to decode with 99% probability?
func ExampleMinBlocks() {
	levels, err := prlc.NewLevels(5, 20)
	if err != nil {
		panic(err)
	}
	dist := prlc.PriorityDistribution{0.6, 0.4}
	m, err := prlc.MinBlocks(prlc.PLC, levels, dist, 1, 0.99, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("the critical level needs %d surviving coded blocks\n", m)
	// Output:
	// the critical level needs 15 surviving coded blocks
}
