package exper

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/feasibility"
)

// FigureOptions scales the evaluation runs: the defaults reproduce the
// paper's settings (N = 1000, 100 trials, fine M grids); tests pass
// smaller values.
type FigureOptions struct {
	// Trials per curve point (0 = 100, the paper's setting).
	Trials int
	// Seed for reproducibility.
	Seed int64
	// Stride between M checkpoints (0 = 100).
	Stride int
	// Scale divides the paper's problem size (0 or 1 = full N = 1000;
	// e.g. 10 runs N = 100 with level sizes scaled accordingly).
	Scale int
}

func (o FigureOptions) withDefaults() FigureOptions {
	if o.Trials == 0 {
		o.Trials = 100
	}
	if o.Stride == 0 {
		o.Stride = 100
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

func (o FigureOptions) scaled(x int) int {
	s := x / o.Scale
	if s < 1 {
		s = 1
	}
	return s
}

// AnalysisVsSimulation reproduces one panel of Fig. 4 (PLC) or Fig. 5
// (SLC): N source blocks split uniformly over `nLevels`, uniform priority
// distribution, decoding curve with both simulation (mean ± 95% CI) and
// analysis series.
//
// Panels: Fig 4(a)/5(a) use nLevels = 5, Fig 4(b)/5(b) use nLevels = 50;
// N = 1000.
func AnalysisVsSimulation(scheme core.Scheme, nLevels int, opts FigureOptions) (*Curve, error) {
	opts = opts.withDefaults()
	perLevel := opts.scaled(1000 / nLevels)
	levels, err := core.UniformLevels(nLevels, perLevel)
	if err != nil {
		return nil, err
	}
	n := levels.Total()
	return SimulateCurve(CurveConfig{
		Name:         fmt.Sprintf("%s n=%d", scheme, nLevels),
		Scheme:       scheme,
		Levels:       levels,
		Dist:         core.NewUniformDistribution(nLevels),
		Ms:           Steps(0, n+n/2, opts.scaled(opts.Stride)),
		Trials:       opts.Trials,
		Seed:         opts.Seed,
		WithAnalysis: true,
	})
}

// SLCvsPLC reproduces one panel of Fig. 6: simulated decoding curves of
// SLC and PLC on the same level structure (N = 1000; 10 or 50 levels).
func SLCvsPLC(nLevels int, opts FigureOptions) (slc, plc *Curve, err error) {
	opts = opts.withDefaults()
	perLevel := opts.scaled(1000 / nLevels)
	levels, err := core.UniformLevels(nLevels, perLevel)
	if err != nil {
		return nil, nil, err
	}
	n := levels.Total()
	mk := func(scheme core.Scheme) (*Curve, error) {
		return SimulateCurve(CurveConfig{
			Name:   fmt.Sprintf("%s n=%d", scheme, nLevels),
			Scheme: scheme,
			Levels: levels,
			Dist:   core.NewUniformDistribution(nLevels),
			Ms:     Steps(0, 2*n, opts.scaled(opts.Stride)),
			Trials: opts.Trials,
			Seed:   opts.Seed,
		})
	}
	if slc, err = mk(core.SLC); err != nil {
		return nil, nil, err
	}
	if plc, err = mk(core.PLC); err != nil {
		return nil, nil, err
	}
	return slc, plc, nil
}

// Table1Case is one row of Table 1: a set of decoding constraints and the
// priority distribution the feasibility solver found for it.
type Table1Case struct {
	Name        string
	Constraints []feasibility.Constraint
	// PaperP is the distribution the paper's MATLAB run reported.
	PaperP core.PriorityDistribution
	// SolvedP is our solver's distribution; Feasible reports whether it
	// satisfies every constraint under the analytical model.
	SolvedP  core.PriorityDistribution
	Feasible bool
}

// table1Problem is the shared Sec. 5.3 setting: 500 source blocks in
// levels (50, 100, 350), PLC, α = 2, ε = 0.01.
func table1Problem(constraints []feasibility.Constraint) (feasibility.Problem, error) {
	levels, err := core.NewLevels(50, 100, 350)
	if err != nil {
		return feasibility.Problem{}, err
	}
	return feasibility.Problem{
		Scheme:   core.PLC,
		Levels:   levels,
		Decoding: constraints,
		Alpha:    2,
		Epsilon:  0.01,
	}, nil
}

// Table1 reproduces Table 1: it solves the three feasibility cases and
// returns the found distributions alongside the paper's.
func Table1(seed int64) ([]Table1Case, error) {
	cases := []Table1Case{
		{
			Name:        "Case 1",
			Constraints: []feasibility.Constraint{{M: 130, MinLevels: 1}, {M: 950, MinLevels: 2}},
			PaperP:      core.PriorityDistribution{0.5138, 0.0768, 0.4094},
		},
		{
			Name:        "Case 2",
			Constraints: []feasibility.Constraint{{M: 265, MinLevels: 1}, {M: 287, MinLevels: 2}},
			PaperP:      core.PriorityDistribution{0, 0.6149, 0.3851},
		},
		{
			Name:        "Case 3",
			Constraints: []feasibility.Constraint{{M: 240, MinLevels: 1}, {M: 450, MinLevels: 2}},
			PaperP:      core.PriorityDistribution{0.2894, 0.3246, 0.3860},
		},
	}
	for i := range cases {
		prob, err := table1Problem(cases[i].Constraints)
		if err != nil {
			return nil, err
		}
		sol, err := feasibility.Solve(prob, feasibility.Options{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cases[i].Name, err)
		}
		cases[i].SolvedP = sol.P
		cases[i].Feasible = sol.Feasible
	}
	return cases, nil
}

// Fig7 reproduces Fig. 7: the simulated PLC decoding curves of the three
// Table 1 priority distributions. Pass the distributions to plot (either
// the solver's or the paper's).
func Fig7(dists []core.PriorityDistribution, names []string, opts FigureOptions) ([]*Curve, error) {
	if len(dists) != len(names) {
		return nil, fmt.Errorf("exper: %d distributions, %d names", len(dists), len(names))
	}
	opts = opts.withDefaults()
	levels, err := core.NewLevels(opts.scaled(50), opts.scaled(100), opts.scaled(350))
	if err != nil {
		return nil, err
	}
	out := make([]*Curve, 0, len(dists))
	for i, p := range dists {
		c, err := SimulateCurve(CurveConfig{
			Name:   names[i],
			Scheme: core.PLC,
			Levels: levels,
			Dist:   p,
			Ms:     Steps(0, opts.scaled(1000), opts.scaled(min(opts.Stride, 50))),
			Trials: opts.Trials,
			Seed:   opts.Seed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		out = append(out, c)
	}
	return out, nil
}
