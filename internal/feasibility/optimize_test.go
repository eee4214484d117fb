package feasibility

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestUtilityValidate(t *testing.T) {
	l := mustTestLevels(t, 5, 5)
	if err := (Utility{1, 0.5}).Validate(l); err != nil {
		t.Errorf("valid utility rejected: %v", err)
	}
	bad := []Utility{
		{1},              // wrong length
		{1, -0.1},        // negative
		{0, 0},           // all zero
		{1, math.NaN()},  // NaN
		{1, math.Inf(1)}, // Inf
	}
	for i, u := range bad {
		if err := u.Validate(l); err == nil {
			t.Errorf("bad utility %d accepted", i)
		}
	}
}

func mustTestLevels(t testing.TB, sizes ...int) *core.Levels {
	t.Helper()
	l, err := core.NewLevels(sizes...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestGeometricUtility(t *testing.T) {
	u, err := GeometricUtility(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 0.25}
	for i := range want {
		if math.Abs(u[i]-want[i]) > 1e-12 {
			t.Errorf("GeometricUtility[%d] = %g, want %g", i, u[i], want[i])
		}
	}
	if _, err := GeometricUtility(0, 0.5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := GeometricUtility(3, -1); err == nil {
		t.Error("negative base accepted")
	}
}

func TestProportionalUtility(t *testing.T) {
	l := mustTestLevels(t, 5, 10, 15)
	u := ProportionalUtility(l)
	if u[0] != 5 || u[1] != 10 || u[2] != 15 {
		t.Errorf("ProportionalUtility = %v", u)
	}
}

func TestExpectedUtilityMatchesAnalysis(t *testing.T) {
	l := mustTestLevels(t, 4, 4)
	prob := OptimizeProblem{
		Scheme: core.PLC, Levels: l,
		Utility: Utility{1, 1},
		M:       20,
	}
	// With unit utilities, E[U] = Σ Pr(X≥k) = E[X].
	p := core.NewUniformDistribution(2)
	eu, err := ExpectedUtility(prob, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := analysisEval(core.PLC, l, p, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eu-r) > 1e-12 {
		t.Errorf("E[U] with unit utilities = %g, E[X] = %g", eu, r)
	}
}

func analysisEval(s core.Scheme, l *core.Levels, p core.PriorityDistribution, m int) (float64, error) {
	prob := OptimizeProblem{Scheme: s, Levels: l, Utility: make(Utility, l.Count()), M: m}
	for i := range prob.Utility {
		prob.Utility[i] = 1
	}
	return expectedUtility(prob, p)
}

func TestOptimizeValidation(t *testing.T) {
	l := mustTestLevels(t, 2, 2)
	bad := []OptimizeProblem{
		{Scheme: core.PLC, Utility: Utility{1, 1}, M: 5},                                  // nil levels
		{Scheme: core.Scheme(0), Levels: l, Utility: Utility{1, 1}, M: 5},                 // bad scheme
		{Scheme: core.PLC, Levels: l, Utility: Utility{1}, M: 5},                          // bad utility
		{Scheme: core.PLC, Levels: l, Utility: Utility{1, 1}, M: -1},                      // bad M
		{Scheme: core.PLC, Levels: l, Utility: Utility{1, 1}, M: 5, Alpha: 2, Epsilon: 0}, // bad eps
	}
	for i, prob := range bad {
		if _, err := Optimize(prob, Options{Seed: 1, MaxEvals: 10}); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

// TestOptimizeStrictUtilityFavorsTopLevel: with utility overwhelmingly on
// level 0 and a small budget, the optimizer concentrates coded blocks on
// level 0, beating the uniform design.
func TestOptimizeStrictUtilityFavorsTopLevel(t *testing.T) {
	l := mustTestLevels(t, 5, 20)
	prob := OptimizeProblem{
		Scheme: core.PLC, Levels: l,
		Utility: Utility{1, 0.01},
		M:       10, // enough for level 0 only
	}
	sol, err := Optimize(prob, Options{Seed: 2, MaxEvals: 600})
	if err != nil {
		t.Fatal(err)
	}
	if sol.P[0] < 0.6 {
		t.Errorf("strict utility produced p = %v, want heavy level-0 share", sol.P)
	}
	uniformEU, err := ExpectedUtility(prob, core.NewUniformDistribution(2))
	if err != nil {
		t.Fatal(err)
	}
	if sol.ExpectedUtility < uniformEU {
		t.Errorf("optimized E[U] %g below uniform %g", sol.ExpectedUtility, uniformEU)
	}
}

// TestOptimizeVolumeUtilityPrefersBulk: with utility proportional to level
// size and a budget big enough only for the bulk level pair, the optimizer
// must NOT starve the large levels — the non-strict regime the paper
// leaves open.
func TestOptimizeVolumeUtilityPrefersBulk(t *testing.T) {
	l := mustTestLevels(t, 2, 28) // tiny critical level, big bulk level
	prob := OptimizeProblem{
		Scheme:  core.PLC,
		Levels:  l,
		Utility: ProportionalUtility(l), // 2 vs 28
		M:       40,
	}
	sol, err := Optimize(prob, Options{Seed: 3, MaxEvals: 600})
	if err != nil {
		t.Fatal(err)
	}
	// Recovering the bulk level requires plenty of level-1 blocks.
	if sol.P[1] < 0.5 {
		t.Errorf("volume utility produced p = %v, want heavy bulk share", sol.P)
	}
}

// TestOptimizeWithConstraints: the constraint must hold even when it costs
// utility.
func TestOptimizeWithConstraints(t *testing.T) {
	l := mustTestLevels(t, 5, 20)
	prob := OptimizeProblem{
		Scheme:  core.PLC,
		Levels:  l,
		Utility: Utility{0.01, 1}, // utility wants the bulk level
		M:       30,
		// ...but operations demand the critical level decodes from 8 blocks.
		Decoding: []Constraint{{M: 8, MinLevels: 0.8}},
	}
	sol, err := Optimize(prob, Options{Seed: 4, MaxEvals: 800})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("constraint not met: violation %g, p = %v", sol.Violation, sol.P)
	}
	v, err := Violation(Problem{
		Scheme: core.PLC, Levels: l,
		Decoding: prob.Decoding,
	}, sol.P)
	if err != nil {
		t.Fatal(err)
	}
	if v > 1e-5 {
		t.Errorf("reported feasible but violation %g", v)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	l := mustTestLevels(t, 3, 3)
	prob := OptimizeProblem{
		Scheme: core.SLC, Levels: l,
		Utility: Utility{1, 0.5},
		M:       8,
	}
	a, err := Optimize(prob, Options{Seed: 5, MaxEvals: 200})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(prob, Options{Seed: 5, MaxEvals: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatalf("non-deterministic: %v vs %v", a.P, b.P)
		}
	}
}

func TestFacadeUtilityHelpers(t *testing.T) {
	u, err := GeometricUtility(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 4 || u[0] != 1 || u[3] != 0.125 {
		t.Errorf("GeometricUtility = %v", u)
	}
	levels, err := core.NewLevels(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := ProportionalUtility(levels)
	if p[0] != 2 || p[1] != 8 {
		t.Errorf("ProportionalUtility = %v", p)
	}
}

func TestFacadeOptimizeDistribution(t *testing.T) {
	levels, err := core.NewLevels(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Optimize(OptimizeProblem{
		Scheme:  core.PLC,
		Levels:  levels,
		Utility: Utility{1, 0.05},
		M:       6, // only the critical level can fit
	}, Options{Seed: 1, MaxEvals: 400})
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
