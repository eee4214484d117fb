package prlc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/feasibility"
)

func TestFacadeUtilityHelpers(t *testing.T) {
	u, err := feasibility.GeometricUtility(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 4 || u[0] != 1 || u[3] != 0.125 {
		t.Errorf("GeometricUtility = %v", u)
	}
	levels, err := NewLevels(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := ProportionalUtility(levels)
	if p[0] != 2 || p[1] != 8 {
		t.Errorf("ProportionalUtility = %v", p)
	}
}

func TestFacadeOptimizeDistribution(t *testing.T) {
	levels, err := NewLevels(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := OptimizeDistribution(OptimizeProblem{
		Scheme:  PLC,
		Levels:  levels,
		Utility: Utility{1, 0.05},
		M:       6, // only the critical level can fit
	}, DesignOptions{Seed: 1, MaxEvals: 400})
	if err != nil {
		t.Fatal(err)
	}
	if sol.P[0] < 0.5 {
		t.Errorf("critical-heavy utility produced %v", sol.P)
	}
	if sol.ExpectedUtility <= 0 || math.IsNaN(sol.ExpectedUtility) {
		t.Errorf("E[U] = %g", sol.ExpectedUtility)
	}
}

func TestFacadePersistenceUnderChurn(t *testing.T) {
	levels, err := NewLevels(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := PersistenceUnderChurn(ChurnConfig{
		Scheme:       PLC,
		Levels:       levels,
		Dist:         UniformDistribution(2),
		Nodes:        60,
		Radius:       0.22,
		M:            30,
		MeanLifetime: 10,
		SampleTimes:  []float64{0, 30},
		Trials:       5,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].AliveFrac != 1 {
		t.Errorf("t=0 alive fraction %g", pts[0].AliveFrac)
	}
	if pts[1].AliveFrac >= pts[0].AliveFrac {
		t.Errorf("no decay: %+v", pts)
	}
}

func TestFacadeSensorNetworkImpossible(t *testing.T) {
	// Two nodes with a vanishing radio range can never connect.
	rng := rand.New(rand.NewSource(3))
	if _, _, err := NewSensorNetwork(rng, 10, 1e-9); err == nil {
		t.Error("impossible deployment accepted")
	}
}

func TestFacadeMinBlocks(t *testing.T) {
	levels, err := NewLevels(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MinBlocks(PLC, levels, UniformDistribution(2), 1, 0.9, 200)
	if err != nil {
		t.Fatal(err)
	}
	if m < 4 {
		t.Errorf("MinBlocks = %d, below the level size", m)
	}
}

func TestFacadeSensorFieldPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	field, err := NewSensorField(rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := field.SampleGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	pyr, err := BuildPyramid(grid, 8)
	if err != nil {
		t.Fatal(err)
	}
	blocks, layout, err := pyr.ToBlocks(16)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, n, err := PyramidFromBlocks(blocks, layout, 8)
	if err != nil {
		t.Fatal(err)
	}
	full, err := rebuilt.Reconstruct(n - 1)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := FieldRMSE(full, grid)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 1e-12 {
		t.Errorf("facade pyramid round trip RMSE %g", rmse)
	}
}
