// Package feasibility implements the Sec. 3.4 design problem: find a
// priority distribution p on the probability simplex satisfying a set of
// decoding constraints
//
//	E(X_{M_i}) ≥ k_i                    (eq. 9)
//	Pr(X_{αN} = n) > 1 − ε              (eq. 10)
//	p_i ≥ 0, Σ p_i = 1                  (eq. 11)
//
// where E(X_M) comes from the internal/analysis model. The paper solved
// this with MATLAB's feasibility search started from the uniform
// distribution and returned the first feasible point found; this package
// replaces MATLAB with a deterministic multi-start projected pattern
// search with the same contract: uniform start, first feasible point wins.
package feasibility

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dist"
)

// Constraint is one decoding constraint (M_i, k_i): from M randomly
// accumulated coded blocks, the expected number of decoded levels must be
// at least MinLevels.
type Constraint struct {
	M         int
	MinLevels float64
}

// Problem is a full Sec. 3.4 feasibility instance.
type Problem struct {
	Scheme core.Scheme
	Levels *core.Levels
	// Decoding lists the (M_i, k_i) constraints of eq. (9).
	Decoding []Constraint
	// Alpha and Epsilon define the eq. (10) full-recovery constraint
	// Pr(X_{αN} = n) > 1−ε. Alpha ≤ 0 disables it.
	Alpha   float64
	Epsilon float64
}

func (p Problem) validate() error {
	if p.Levels == nil {
		return fmt.Errorf("feasibility: nil levels")
	}
	if !p.Scheme.Valid() {
		return fmt.Errorf("feasibility: invalid scheme %v", p.Scheme)
	}
	if math.IsNaN(p.Alpha) || math.IsInf(p.Alpha, 0) || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("feasibility: alpha %g and epsilon %g must be finite", p.Alpha, p.Epsilon)
	}
	if len(p.Decoding) == 0 && p.Alpha <= 0 {
		return fmt.Errorf("feasibility: no constraints given")
	}
	n := float64(p.Levels.Count())
	for i, c := range p.Decoding {
		if c.M < 0 {
			return fmt.Errorf("feasibility: constraint %d has negative M %d", i, c.M)
		}
		if !(c.MinLevels >= 0 && c.MinLevels <= n) {
			return fmt.Errorf("feasibility: constraint %d wants %g levels, range [0, %g]",
				i, c.MinLevels, n)
		}
	}
	if p.Alpha > 0 && (p.Epsilon <= 0 || p.Epsilon >= 1) {
		return fmt.Errorf("feasibility: epsilon %g outside (0, 1)", p.Epsilon)
	}
	return nil
}

// Options tunes the solver.
type Options struct {
	// MaxEvals bounds the number of analysis evaluations (0 = 4000).
	MaxEvals int
	// Restarts is the number of random restarts after the uniform start
	// (0 = 8).
	Restarts int
	// Seed drives the random restarts; the search is deterministic given
	// a seed.
	Seed int64
	// Tol is the violation level treated as feasible (0 = 1e-5, i.e. a
	// worst-case constraint gap of ~3e-3 expected levels). Active
	// constraints hold with equality at the boundary, so demanding an
	// exact zero would reject points any numerical solver returns.
	Tol float64
}

func (o Options) withDefaults() Options {
	if o.MaxEvals == 0 {
		o.MaxEvals = 4000
	}
	if o.Restarts == 0 {
		o.Restarts = 8
	}
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	return o
}

// Solution is the solver's result. Feasible reports whether every
// constraint is met; P is the best point found either way.
type Solution struct {
	P         core.PriorityDistribution
	Violation float64
	Feasible  bool
	Evals     int
}

// Violation returns the total constraint violation at p: zero iff p is
// feasible. Exposed so experiments can verify reported distributions
// (e.g. the paper's Table 1) against the analytical model.
func Violation(prob Problem, p core.PriorityDistribution) (float64, error) {
	if err := prob.validate(); err != nil {
		return 0, err
	}
	if err := p.Validate(prob.Levels); err != nil {
		return 0, err
	}
	return violation(prob, p)
}

func violation(prob Problem, p core.PriorityDistribution) (float64, error) {
	v := 0.0
	for _, c := range prob.Decoding {
		r, err := analysis.Eval(prob.Scheme, prob.Levels, p, c.M)
		if err != nil {
			return 0, err
		}
		if gap := c.MinLevels - r.EX; gap > 0 {
			v += gap * gap
		}
	}
	if prob.Alpha > 0 {
		m := int(math.Ceil(prob.Alpha * float64(prob.Levels.Total())))
		r, err := analysis.Eval(prob.Scheme, prob.Levels, p, m)
		if err != nil {
			return 0, err
		}
		if gap := (1 - prob.Epsilon) - r.PrAll(); gap > 0 {
			// Scale the probability gap so it competes with level gaps.
			g := gap * float64(prob.Levels.Count())
			v += g * g
		}
	}
	return v, nil
}

// Solve searches for a feasible priority distribution. Matching the
// paper's methodology, the search starts from the uniform distribution and
// stops at the first feasible point; if the uniform basin yields none,
// deterministic random restarts follow. When no feasible point is found
// within the evaluation budget, the least-violating point is returned with
// Feasible == false (the paper: "this implies the decoding constraints
// cannot be fulfilled").
func Solve(prob Problem, opts Options) (Solution, error) {
	if err := prob.validate(); err != nil {
		return Solution{}, err
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	n := prob.Levels.Count()

	best := Solution{Violation: math.Inf(1)}
	evals := 0
	eval := func(p core.PriorityDistribution) (float64, error) {
		evals++
		return violation(prob, p)
	}

	starts := make([]core.PriorityDistribution, 0, opts.Restarts+1)
	starts = append(starts, core.NewUniformDistribution(n))
	for i := 0; i < opts.Restarts; i++ {
		starts = append(starts, randomSimplexPoint(rng, n))
	}

	for _, start := range starts {
		sol, err := patternSearch(prob, start, eval, &evals, opts.MaxEvals, opts.Tol)
		if err != nil {
			return Solution{}, err
		}
		if sol.Violation < best.Violation {
			best = sol
		}
		if best.Violation <= opts.Tol {
			break
		}
		if evals >= opts.MaxEvals {
			break
		}
	}
	best.Feasible = best.Violation <= opts.Tol
	best.Evals = evals
	return best, nil
}

// patternSearch performs coordinate-exchange pattern search projected onto
// the simplex: moves of size δ along e_i − e_j directions, with δ shrinking
// when no move improves.
func patternSearch(
	prob Problem,
	start core.PriorityDistribution,
	eval func(core.PriorityDistribution) (float64, error),
	evals *int,
	maxEvals int,
	tol float64,
) (Solution, error) {
	n := len(start)
	cur := start.Clone()
	curV, err := eval(cur)
	if err != nil {
		return Solution{}, err
	}
	if curV <= tol {
		return Solution{P: cur, Violation: curV}, nil
	}
	for _, step := range []float64{0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002} {
		improved := true
		for improved && *evals < maxEvals {
			improved = false
			for i := 0; i < n && *evals < maxEvals; i++ {
				for j := 0; j < n && *evals < maxEvals; j++ {
					if i == j {
						continue
					}
					cand := moveMass(cur, i, j, step)
					if cand == nil {
						continue
					}
					v, err := eval(cand)
					if err != nil {
						return Solution{}, err
					}
					if v < curV {
						cur, curV = cand, v
						improved = true
						if curV <= tol {
							return Solution{P: cur, Violation: curV}, nil
						}
					}
				}
			}
		}
	}
	return Solution{P: cur, Violation: curV}, nil
}

// moveMass shifts δ of probability mass from level j to level i, clamped
// at j's available mass; returns nil when j has nothing to give.
func moveMass(p core.PriorityDistribution, i, j int, delta float64) core.PriorityDistribution {
	if p[j] <= 0 {
		return nil
	}
	d := delta
	if d > p[j] {
		d = p[j]
	}
	out := p.Clone()
	out[i] += d
	out[j] -= d
	if out[j] < 0 {
		out[j] = 0
	}
	return core.PriorityDistribution(dist.ProjectToSimplex(out))
}

// randomSimplexPoint draws a uniform (flat Dirichlet) point on the simplex.
func randomSimplexPoint(rng *rand.Rand, n int) core.PriorityDistribution {
	p := make(core.PriorityDistribution, n)
	sum := 0.0
	for i := range p {
		p[i] = rng.ExpFloat64()
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}
