// Churntimeline: persistence on a time axis. Sensors pre-distribute coded
// measurements at t = 0 and then die at exponentially distributed times;
// the example tracks how many priority levels remain decodable as the
// network decays, comparing the strict-priority design against a
// utility-optimized one (the non-strict model the paper leaves as future
// work).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/feasibility"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	levels, err := core.NewLevels(5, 10, 25) // N = 40
	if err != nil {
		return err
	}

	// Design A: strict priority via decoding constraints — the critical
	// level must be expected to survive with only 15 random caches.
	strict, err := feasibility.Solve(feasibility.Problem{
		Scheme:   core.PLC,
		Levels:   levels,
		Decoding: []feasibility.Constraint{{M: 15, MinLevels: 1}},
	}, feasibility.Options{Seed: 1})
	if err != nil {
		return err
	}
	if !strict.Feasible {
		return fmt.Errorf("strict design infeasible")
	}

	// Design B: maximize expected utility at a 60-cache budget with
	// utility proportional to level volume (recover as many blocks as
	// possible, priorities soft).
	volume, err := feasibility.Optimize(feasibility.OptimizeProblem{
		Scheme:  core.PLC,
		Levels:  levels,
		Utility: feasibility.ProportionalUtility(levels),
		M:       60,
	}, feasibility.Options{Seed: 2})
	if err != nil {
		return err
	}

	fmt.Printf("strict-priority distribution: %.3f / %.3f / %.3f\n",
		strict.P[0], strict.P[1], strict.P[2])
	fmt.Printf("volume-utility distribution:  %.3f / %.3f / %.3f (E[U] = %.1f blocks)\n\n",
		volume.P[0], volume.P[1], volume.P[2], volume.ExpectedUtility)

	sampleTimes := []float64{0, 5, 10, 20, 30, 50}
	runTimeline := func(name string, dist core.PriorityDistribution) error {
		pts, err := exper.PersistenceUnderChurn(exper.ChurnConfig{
			Scheme:       core.PLC,
			Levels:       levels,
			Dist:         dist,
			Nodes:        120,
			Radius:       0.18,
			M:            120,
			MeanLifetime: 20,
			SampleTimes:  sampleTimes,
			Trials:       30,
			Seed:         3,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n  t       alive%%   levels\n", name)
		for _, p := range pts {
			fmt.Printf("  %-7.0f %6.0f%%   %.2f±%.2f\n", p.T, p.AliveFrac*100, p.Mean, p.CI95)
		}
		fmt.Println()
		return nil
	}
	if err := runTimeline("strict-priority design", strict.P); err != nil {
		return err
	}
	return runTimeline("volume-utility design", volume.P)
}
