// Feasibility: the Sec. 3.4 design workflow. Given application decoding
// constraints — "from M_i random coded blocks, expect at least k_i levels"
// — search the probability simplex for a priority distribution that
// satisfies them, then validate the design against both the analytical
// model and a Monte-Carlo simulation of the real code. Reproduces the
// paper's Table 1 / Fig. 7 setting (500 blocks in levels 50/100/350).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/feasibility"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	levels, err := core.NewLevels(50, 100, 350)
	if err != nil {
		return err
	}

	cases := []struct {
		name        string
		constraints []feasibility.Constraint
	}{
		{"Case 1", []feasibility.Constraint{{M: 130, MinLevels: 1}, {M: 950, MinLevels: 2}}},
		{"Case 2", []feasibility.Constraint{{M: 265, MinLevels: 1}, {M: 287, MinLevels: 2}}},
		{"Case 3", []feasibility.Constraint{{M: 240, MinLevels: 1}, {M: 450, MinLevels: 2}}},
		// A deliberately impossible case: decode everything from N/2 blocks.
		{"Impossible", []feasibility.Constraint{{M: 250, MinLevels: 3}}},
	}

	for _, c := range cases {
		sol, err := feasibility.Solve(feasibility.Problem{
			Scheme:   core.PLC,
			Levels:   levels,
			Decoding: c.constraints,
			Alpha:    2,
			Epsilon:  0.01,
		}, feasibility.Options{Seed: 1})
		if err != nil {
			return err
		}
		fmt.Printf("%s: constraints %v\n", c.name, c.constraints)
		if !sol.Feasible {
			fmt.Printf("  infeasible (best violation %.4g after %d evaluations) — the\n"+
				"  constraints cannot be fulfilled, as the paper notes can happen\n\n",
				sol.Violation, sol.Evals)
			continue
		}
		fmt.Printf("  distribution: %.4f / %.4f / %.4f (%d evaluations)\n",
			sol.P[0], sol.P[1], sol.P[2], sol.Evals)

		// Validate analytically at each constraint point.
		for _, d := range c.constraints {
			r, err := analysis.Eval(core.PLC, levels, sol.P, d.M)
			if err != nil {
				return err
			}
			fmt.Printf("  analysis:   E(X_%d) = %.3f (constraint >= %g)\n", d.M, r.EX, d.MinLevels)
		}

		// Validate by simulating the actual code, 100 trials per point.
		rng := rand.New(rand.NewSource(9))
		enc, err := core.NewEncoder(core.PLC, levels, nil)
		if err != nil {
			return err
		}
		for _, d := range c.constraints {
			sum := 0.0
			const trials = 100
			for trial := 0; trial < trials; trial++ {
				dec, err := core.NewDecoder(core.PLC, levels, 0)
				if err != nil {
					return err
				}
				blocks, err := enc.EncodeBatch(rng, sol.P, d.M)
				if err != nil {
					return err
				}
				for _, b := range blocks {
					if _, err := dec.Add(b); err != nil {
						return err
					}
				}
				sum += float64(dec.DecodedLevels())
			}
			fmt.Printf("  simulation: E(X_%d) = %.3f over %d trials\n", d.M, sum/trials, trials)
		}
		fmt.Println()
	}
	return nil
}
