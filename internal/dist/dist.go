// Package dist provides the probability primitives shared by the
// analytical model (internal/analysis) and the Monte-Carlo experiment
// harness (internal/exper): log-space binomial/multinomial mass functions,
// an O(1) alias-method categorical sampler for drawing coded-block levels
// from a priority distribution, and mean/confidence-interval estimators
// for simulation output.
package dist

import (
	"fmt"
	"math"
	"sort"
)

// LogFactorial returns ln(n!) using the log-gamma function.
func LogFactorial(n int) float64 {
	if n < 0 {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// LogChoose returns ln(C(n, k)), or -Inf for k outside [0, n].
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// LogBinomialPMF returns ln Pr(X = k) for X ~ Binomial(n, p).
func LogBinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	switch {
	case p <= 0:
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	case p >= 1:
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// BinomialPMF returns Pr(X = k) for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	return math.Exp(LogBinomialPMF(n, k, p))
}

// Simplex validates that p is a probability vector: finite,
// nonnegative entries summing to 1 within tol.
func Simplex(p []float64, tol float64) error {
	sum := 0.0
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dist: non-finite probability p[%d] = %g", i, v)
		}
		if v < -tol {
			return fmt.Errorf("dist: negative probability p[%d] = %g", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > tol {
		return fmt.Errorf("dist: probabilities sum to %g, want 1 (tolerance %g)", sum, tol)
	}
	return nil
}

// Apportion splits total into len(shares) integer parts proportional
// to shares, summing exactly to total (largest-remainder rounding; ties
// go to the more critical level): how a priority distribution becomes
// per-level counts — repair's distinct-block targets, pre-distribution's
// cache slots and gossip's nodes per level part. Shares must be finite
// and non-negative with a positive sum.
func Apportion(shares []float64, total int) ([]int, error) {
	if total < 0 {
		return nil, fmt.Errorf("dist: total %d to apportion, want >= 0", total)
	}
	sum := 0.0
	for i, s := range shares {
		if s < 0 {
			return nil, fmt.Errorf("dist: negative share %g at level %d", s, i)
		}
		sum += s
	}
	// A NaN or +Inf share makes the sum NaN or +Inf.
	if !(sum > 0) || math.IsInf(sum, 1) {
		return nil, fmt.Errorf("dist: priority distribution sums to %g, want finite and > 0", sum)
	}
	out := make([]int, len(shares))
	type rem struct {
		level int
		frac  float64
	}
	rems := make([]rem, len(shares))
	used := 0
	for i, s := range shares {
		exact := s / sum * float64(total)
		out[i] = int(exact)
		used += out[i]
		rems[i] = rem{level: i, frac: exact - float64(out[i])}
	}
	sort.SliceStable(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].level < rems[j].level
	})
	for i := 0; i < total-used; i++ {
		out[rems[i%len(rems)].level]++
	}
	return out, nil
}

// ProjectToSimplex returns the Euclidean projection of v onto the
// probability simplex (Duchi et al. algorithm). Used by the feasibility
// solver to keep candidate priority distributions valid.
func ProjectToSimplex(v []float64) []float64 {
	n := len(v)
	if n == 0 {
		return nil
	}
	// Sort a copy descending.
	u := make([]float64, n)
	copy(u, v)
	sortDescending(u)
	cum := 0.0
	theta := 0.0
	k := 0
	for i := 0; i < n; i++ {
		cum += u[i]
		t := (cum - 1) / float64(i+1)
		if u[i]-t > 0 {
			theta = t
			k = i + 1
		}
	}
	if k == 0 {
		// All mass on the largest coordinate (degenerate input).
		out := make([]float64, n)
		best := 0
		for i := 1; i < n; i++ {
			if v[i] > v[best] {
				best = i
			}
		}
		out[best] = 1
		return out
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if w := v[i] - theta; w > 0 {
			out[i] = w
		}
	}
	return out
}

func sortDescending(v []float64) {
	// Insertion sort is fine for the small n (priority levels) seen here;
	// avoid pulling in sort for a hot inner loop over tiny slices.
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] < x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

// Uniform returns the uniform distribution over n categories.
func Uniform(n int) []float64 {
	if n <= 0 {
		return nil
	}
	p := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}
