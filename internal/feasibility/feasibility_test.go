package feasibility

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

func sec53Levels(t testing.TB) *core.Levels {
	t.Helper()
	l, err := core.NewLevels(50, 100, 350) // the Sec. 5.3 structure, N = 500
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestProblemValidation(t *testing.T) {
	l := sec53Levels(t)
	good := Problem{
		Scheme:   core.PLC,
		Levels:   l,
		Decoding: []Constraint{{M: 130, MinLevels: 1}},
		Alpha:    2, Epsilon: 0.01,
	}
	if err := good.validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	bad := []Problem{
		{Scheme: core.PLC, Levels: nil, Decoding: good.Decoding},
		{Scheme: core.Scheme(0), Levels: l, Decoding: good.Decoding},
		{Scheme: core.PLC, Levels: l}, // no constraints at all
		{Scheme: core.PLC, Levels: l, Decoding: []Constraint{{M: -1, MinLevels: 1}}},
		{Scheme: core.PLC, Levels: l, Decoding: []Constraint{{M: 10, MinLevels: 9}}},
		{Scheme: core.PLC, Levels: l, Decoding: good.Decoding, Alpha: 2, Epsilon: 0},
		{Scheme: core.PLC, Levels: l, Decoding: good.Decoding, Alpha: 2, Epsilon: 1},
		{Scheme: core.PLC, Levels: l, Decoding: []Constraint{{M: 60, MinLevels: math.NaN()}}},
		{Scheme: core.PLC, Levels: l, Alpha: math.NaN(), Epsilon: 0.01},
		{Scheme: core.PLC, Levels: l, Decoding: good.Decoding, Alpha: math.NaN(), Epsilon: 0.01},
		{Scheme: core.PLC, Levels: l, Decoding: good.Decoding, Alpha: math.Inf(1), Epsilon: 0.01},
		{Scheme: core.PLC, Levels: l, Decoding: good.Decoding, Alpha: 2, Epsilon: math.NaN()},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

func TestViolationZeroForSlackConstraints(t *testing.T) {
	l := sec53Levels(t)
	prob := Problem{
		Scheme:   core.PLC,
		Levels:   l,
		Decoding: []Constraint{{M: 1000, MinLevels: 1}}, // trivially satisfied
	}
	v, err := Violation(prob, core.NewUniformDistribution(3))
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("violation = %g for slack constraint, want 0", v)
	}
}

func TestViolationPositiveForImpossibleConstraints(t *testing.T) {
	l := sec53Levels(t)
	prob := Problem{
		Scheme:   core.PLC,
		Levels:   l,
		Decoding: []Constraint{{M: 10, MinLevels: 3}}, // 10 blocks can never decode 500
	}
	v, err := Violation(prob, core.NewUniformDistribution(3))
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("violation = %g for impossible constraint, want > 0", v)
	}
}

func TestViolationRejectsBadDistribution(t *testing.T) {
	l := sec53Levels(t)
	prob := Problem{
		Scheme:   core.PLC,
		Levels:   l,
		Decoding: []Constraint{{M: 100, MinLevels: 1}},
	}
	if _, err := Violation(prob, core.PriorityDistribution{0.5, 0.5}); err == nil {
		t.Error("wrong-length distribution accepted")
	}
}

// TestPaperTable1DistributionsNearFeasible validates the paper's reported
// Table 1 solutions against our analytical model: each must satisfy its
// decoding constraints to within a small tolerance (the paper's own PLC
// analysis is approximate, ours is exact, so exact equality is not
// expected at the constraint boundary).
func TestPaperTable1DistributionsNearFeasible(t *testing.T) {
	l := sec53Levels(t)
	cases := []struct {
		name        string
		constraints []Constraint
		p           core.PriorityDistribution
	}{
		{"case1", []Constraint{{130, 1}, {950, 2}}, core.PriorityDistribution{0.5138, 0.0768, 0.4094}},
		{"case2", []Constraint{{265, 1}, {287, 2}}, core.PriorityDistribution{0, 0.6149, 0.3851}},
		{"case3", []Constraint{{240, 1}, {450, 2}}, core.PriorityDistribution{0.2894, 0.3246, 0.3860}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range tc.constraints {
				r, err := analysis.Eval(core.PLC, l, tc.p, c.M)
				if err != nil {
					t.Fatal(err)
				}
				if r.EX < c.MinLevels-0.12 {
					t.Errorf("paper distribution gives E(X_%d) = %.3f, constraint %g",
						c.M, r.EX, c.MinLevels)
				}
			}
		})
	}
}

// TestSolveTable1Cases reproduces Table 1: the solver must find a feasible
// distribution for each of the three constraint cases, including the full
// α = 2, ε = 0.01 recovery constraint of eq. (10).
func TestSolveTable1Cases(t *testing.T) {
	if testing.Short() {
		t.Skip("feasibility search is expensive; run without -short")
	}
	l := sec53Levels(t)
	cases := []struct {
		name        string
		constraints []Constraint
	}{
		{"case1", []Constraint{{130, 1}, {950, 2}}},
		{"case2", []Constraint{{265, 1}, {287, 2}}},
		{"case3", []Constraint{{240, 1}, {450, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob := Problem{
				Scheme:   core.PLC,
				Levels:   l,
				Decoding: tc.constraints,
				Alpha:    2, Epsilon: 0.01,
			}
			sol, err := Solve(prob, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Feasible {
				t.Fatalf("no feasible distribution found (violation %g after %d evals, p=%v)",
					sol.Violation, sol.Evals, sol.P)
			}
			// Double-check feasibility through the public Violation API:
			// within solver tolerance, i.e. constraint gaps below ~3e-3
			// expected levels.
			v, err := Violation(prob, sol.P)
			if err != nil {
				t.Fatal(err)
			}
			if v > 1e-5 {
				t.Errorf("solver-reported feasible point has violation %g", v)
			}
		})
	}
}

func TestSolveInfeasibleReportsBestEffort(t *testing.T) {
	l := sec53Levels(t)
	prob := Problem{
		Scheme:   core.PLC,
		Levels:   l,
		Decoding: []Constraint{{M: 10, MinLevels: 3}},
	}
	sol, err := Solve(prob, Options{Seed: 1, MaxEvals: 60, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Error("impossible problem reported feasible")
	}
	if sol.P == nil || math.IsInf(sol.Violation, 1) {
		t.Errorf("no best-effort point returned: %+v", sol)
	}
}

func TestSolveDeterministicGivenSeed(t *testing.T) {
	l, err := core.NewLevels(5, 10, 15)
	if err != nil {
		t.Fatal(err)
	}
	prob := Problem{
		Scheme:   core.PLC,
		Levels:   l,
		Decoding: []Constraint{{12, 1}, {40, 2.5}},
	}
	a, err := Solve(prob, Options{Seed: 7, MaxEvals: 300})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(prob, Options{Seed: 7, MaxEvals: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.P) != len(b.P) {
		t.Fatal("result lengths differ")
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatalf("solutions differ at %d: %v vs %v", i, a.P, b.P)
		}
	}
}

func TestSolveSmallSLCProblem(t *testing.T) {
	l, err := core.NewLevels(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	prob := Problem{
		Scheme:   core.SLC,
		Levels:   l,
		Decoding: []Constraint{{8, 1}},
	}
	sol, err := Solve(prob, Options{Seed: 3, MaxEvals: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("simple SLC problem unsolved: violation %g, p=%v", sol.Violation, sol.P)
	}
	// Decoding level 1 (4 blocks) from 8 coded blocks in expectation needs
	// the level-0 share well above uniform.
	if sol.P[0] <= 0.5 {
		t.Errorf("solution %v does not favor level 0 as expected", sol.P)
	}
}

func TestFacadeDesign(t *testing.T) {
	levels, err := core.NewLevels(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(Problem{
		Scheme:   core.PLC,
		Levels:   levels,
		Decoding: []Constraint{{M: 6, MinLevels: 1}},
	}, Options{Seed: 1, MaxEvals: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Errorf("simple design problem infeasible: %+v", sol)
	}
}
