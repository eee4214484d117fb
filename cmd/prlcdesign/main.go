// Command prlcdesign runs the Sec. 3.4 design workflow from the command
// line: it turns decoding constraints (and optionally a per-level utility
// function) into a priority distribution, then prints the analytical
// decoding curve of the design.
//
// Usage:
//
//	prlcdesign -levels 50,100,350 -constraints 130:1,950:2 -alpha 2 -eps 0.01
//	prlcdesign -levels 10,40,150 -utility 1,0.3,0.1 -budget 120
//	prlcdesign -levels 10,40,150 -utility prop -budget 300 -constraints 60:1
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/feasibility"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prlcdesign:", err)
		os.Exit(1)
	}
}

type options struct {
	levels      []int
	scheme      core.Scheme
	constraints []feasibility.Constraint
	alpha       float64
	epsilon     float64
	utilitySpec string
	budget      int
	seed        int64
	maxEvals    int
	curvePoints int
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("prlcdesign", flag.ContinueOnError)
	var (
		o              options
		levelsStr      string
		schemeStr      string
		constraintsStr string
	)
	fs.StringVar(&levelsStr, "levels", "", "comma-separated source blocks per priority level (required)")
	fs.StringVar(&schemeStr, "scheme", "plc", "coding scheme: rlc, slc or plc")
	fs.StringVar(&constraintsStr, "constraints", "", "decoding constraints M:k,M:k,... (eq. 9)")
	fs.Float64Var(&o.alpha, "alpha", 0, "full-recovery constraint factor (eq. 10; 0 disables)")
	fs.Float64Var(&o.epsilon, "eps", 0.01, "full-recovery failure probability (eq. 10)")
	fs.StringVar(&o.utilitySpec, "utility", "", "per-level utilities u0,u1,... or 'prop' (level sizes) or 'geo:BASE'")
	fs.IntVar(&o.budget, "budget", 0, "collection budget M for utility optimization")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.maxEvals, "maxevals", 0, "evaluation budget for the search (0 = default)")
	fs.IntVar(&o.curvePoints, "curvepoints", 11, "points on the printed decoding curve")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if levelsStr == "" {
		return options{}, fmt.Errorf("-levels is required")
	}
	var err error
	if o.levels, err = cliutil.ParseInts(levelsStr); err != nil {
		return options{}, fmt.Errorf("-levels: %w", err)
	}
	if err := cliutil.Finite("-alpha", o.alpha); err != nil {
		return options{}, err
	}
	if err := cliutil.Finite("-eps", o.epsilon); err != nil {
		return options{}, err
	}
	if o.scheme, err = core.ParseScheme(schemeStr); err != nil {
		return options{}, err
	}
	if constraintsStr != "" {
		for _, part := range strings.Split(constraintsStr, ",") {
			mk := strings.SplitN(strings.TrimSpace(part), ":", 2)
			if len(mk) != 2 {
				return options{}, fmt.Errorf("-constraints: %q is not M:k", part)
			}
			m, err := strconv.Atoi(mk[0])
			if err != nil {
				return options{}, fmt.Errorf("-constraints: %w", err)
			}
			k, err := strconv.ParseFloat(mk[1], 64)
			if err != nil {
				return options{}, fmt.Errorf("-constraints: %w", err)
			}
			if err := cliutil.Finite("-constraints", k); err != nil {
				return options{}, err
			}
			o.constraints = append(o.constraints, feasibility.Constraint{M: m, MinLevels: k})
		}
	}
	if o.utilitySpec != "" && o.budget <= 0 {
		return options{}, fmt.Errorf("-utility requires a positive -budget")
	}
	if o.utilitySpec == "" && len(o.constraints) == 0 && o.alpha <= 0 {
		return options{}, fmt.Errorf("nothing to design: pass -constraints, -alpha and/or -utility")
	}
	return o, nil
}

func parseUtility(spec string, levels *core.Levels) (feasibility.Utility, error) {
	switch {
	case spec == "prop":
		return feasibility.ProportionalUtility(levels), nil
	case strings.HasPrefix(spec, "geo:"):
		base, err := strconv.ParseFloat(spec[len("geo:"):], 64)
		if err != nil {
			return nil, fmt.Errorf("-utility geo: %w", err)
		}
		return feasibility.GeometricUtility(levels.Count(), base)
	default:
		u, err := cliutil.ParseFloats(spec)
		if err != nil {
			return nil, fmt.Errorf("-utility: %w", err)
		}
		return u, nil
	}
}

func run(args []string, w *os.File) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	levels, err := core.NewLevels(o.levels...)
	if err != nil {
		return err
	}

	var p core.PriorityDistribution
	if o.utilitySpec != "" {
		u, err := parseUtility(o.utilitySpec, levels)
		if err != nil {
			return err
		}
		sol, err := feasibility.Optimize(feasibility.OptimizeProblem{
			Scheme: o.scheme, Levels: levels, Utility: u, M: o.budget,
			Decoding: o.constraints, Alpha: o.alpha, Epsilon: o.epsilon,
		}, feasibility.Options{Seed: o.seed, MaxEvals: o.maxEvals})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "utility-optimal distribution: %s\n", fmtDist(sol.P))
		fmt.Fprintf(w, "expected utility at M=%d: %.4f (%d evaluations)\n",
			o.budget, sol.ExpectedUtility, sol.Evals)
		if len(o.constraints) > 0 || o.alpha > 0 {
			fmt.Fprintf(w, "constraints satisfied: %v (violation %.3g)\n", sol.Feasible, sol.Violation)
			if !sol.Feasible {
				return fmt.Errorf("constraints could not be satisfied")
			}
		}
		p = sol.P
	} else {
		sol, err := feasibility.Solve(feasibility.Problem{
			Scheme: o.scheme, Levels: levels,
			Decoding: o.constraints, Alpha: o.alpha, Epsilon: o.epsilon,
		}, feasibility.Options{Seed: o.seed, MaxEvals: o.maxEvals})
		if err != nil {
			return err
		}
		if !sol.Feasible {
			fmt.Fprintf(w, "infeasible: best point %s with violation %.4g after %d evaluations\n",
				fmtDist(sol.P), sol.Violation, sol.Evals)
			return fmt.Errorf("the decoding constraints cannot be fulfilled")
		}
		fmt.Fprintf(w, "feasible distribution: %s (%d evaluations)\n", fmtDist(sol.P), sol.Evals)
		p = sol.P
	}

	// Print the analytical decoding curve of the design.
	n := levels.Total()
	maxM := 2 * n
	step := maxM / (o.curvePoints - 1)
	if step < 1 {
		step = 1
	}
	ms := exper.Steps(0, maxM, step)
	fmt.Fprintf(w, "\nanalytical decoding curve (%s, N=%d):\n  M       E(X)    Pr(all)\n",
		o.scheme, n)
	for _, m := range ms {
		r, err := analysis.Eval(o.scheme, levels, p, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-7d %-7.3f %.4f\n", m, r.EX, r.PrAll())
	}
	return nil
}

func fmtDist(p core.PriorityDistribution) string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = strconv.FormatFloat(v, 'f', 4, 64)
	}
	return strings.Join(parts, " / ")
}
