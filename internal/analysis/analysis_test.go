package analysis

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

func mustLevels(t testing.TB, sizes ...int) *core.Levels {
	t.Helper()
	l, err := core.NewLevels(sizes...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// enumerate walks every occupancy vector of m blocks over n levels and
// accumulates multinomial-weighted indicator values — the brute-force
// O(M^{n-1}) computation the paper's DP replaces.
func enumerate(m int, p []float64, indicator func(counts []int) bool) float64 {
	counts := make([]int, len(p))
	var walk func(level, left int, logw float64) float64
	walk = func(level, left int, logw float64) float64 {
		if level == len(p)-1 {
			counts[level] = left
			w := logw
			if p[level] > 0 {
				w += float64(left) * math.Log(p[level])
			} else if left > 0 {
				return 0
			}
			w -= dist.LogFactorial(left)
			if indicator(counts) {
				return math.Exp(w + dist.LogFactorial(m))
			}
			return 0
		}
		total := 0.0
		for c := 0; c <= left; c++ {
			counts[level] = c
			w := logw
			if p[level] > 0 {
				w += float64(c) * math.Log(p[level])
			} else if c > 0 {
				continue
			}
			w -= dist.LogFactorial(c)
			total += walk(level+1, left-c, w)
		}
		return total
	}
	return walk(0, m, 0)
}

func TestEvalValidation(t *testing.T) {
	l := mustLevels(t, 2, 2)
	u := core.NewUniformDistribution(2)
	if _, err := Eval(core.Scheme(0), l, u, 10); err == nil {
		t.Error("invalid scheme accepted")
	}
	if _, err := Eval(core.SLC, nil, u, 10); err == nil {
		t.Error("nil levels accepted")
	}
	if _, err := Eval(core.SLC, l, core.PriorityDistribution{1}, 10); err == nil {
		t.Error("wrong-length distribution accepted")
	}
	if _, err := Eval(core.PLC, l, u, -1); err == nil {
		t.Error("negative M accepted")
	}
}

func TestRLCStepFunction(t *testing.T) {
	l := mustLevels(t, 5, 5)
	u := core.NewUniformDistribution(2)
	below, err := Eval(core.RLC, l, u, 9)
	if err != nil {
		t.Fatal(err)
	}
	if below.EX != 0 || below.PrAll() != 0 {
		t.Errorf("RLC with M < N: EX = %g, PrAll = %g; want 0, 0", below.EX, below.PrAll())
	}
	at, err := Eval(core.RLC, l, u, 10)
	if err != nil {
		t.Fatal(err)
	}
	if at.EX != 2 || at.PrAll() != 1 {
		t.Errorf("RLC with M = N: EX = %g, PrAll = %g; want 2, 1", at.EX, at.PrAll())
	}
}

// TestSLCMatchesBruteForce cross-checks the SLC DP against full multinomial
// enumeration on small structures.
func TestSLCMatchesBruteForce(t *testing.T) {
	cases := []struct {
		sizes []int
		p     core.PriorityDistribution
		m     int
	}{
		{[]int{2, 3}, core.PriorityDistribution{0.5, 0.5}, 8},
		{[]int{2, 3}, core.PriorityDistribution{0.8, 0.2}, 12},
		{[]int{1, 2, 3}, core.PriorityDistribution{0.2, 0.3, 0.5}, 10},
		{[]int{3, 3, 3}, core.NewUniformDistribution(3), 15},
		{[]int{2, 2}, core.PriorityDistribution{0, 1}, 6}, // degenerate level share
	}
	for _, tc := range cases {
		l := mustLevels(t, tc.sizes...)
		got, err := Eval(core.SLC, l, tc.p, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= l.Count(); k++ {
			k := k
			want := enumerate(tc.m, tc.p, func(counts []int) bool {
				for i := 0; i < k; i++ {
					if counts[i] < tc.sizes[i] {
						return false
					}
				}
				return true
			})
			if math.Abs(got.PrGE[k-1]-want) > 1e-9 {
				t.Errorf("sizes=%v p=%v M=%d: Pr(X>=%d) = %.12f, brute force %.12f",
					tc.sizes, tc.p, tc.m, k, got.PrGE[k-1], want)
			}
		}
	}
}

// lemma2Event reports whether E_k holds for the given occupancy counts:
// D_{i,k} ≥ b_k − b_{i−1} for every i ≤ k (1-based k).
func lemma2Event(l *core.Levels, counts []int, k int) bool {
	bk := l.CumSize(k - 1)
	suffix := 0
	for i := k - 1; i >= 0; i-- {
		suffix += counts[i]
		prevCum := 0
		if i > 0 {
			prevCum = l.CumSize(i - 1)
		}
		if suffix < bk-prevCum {
			return false
		}
	}
	return true
}

// TestPLCMatchesBruteForce cross-checks the exact PLC survival DP against
// full enumeration of the Theorem-1 semantics: X ≥ k iff some j ≥ k
// satisfies the Lemma-2 event E_j.
func TestPLCMatchesBruteForce(t *testing.T) {
	cases := []struct {
		sizes []int
		p     core.PriorityDistribution
		m     int
	}{
		{[]int{2, 3}, core.PriorityDistribution{0.5, 0.5}, 8},
		{[]int{1, 2, 3}, core.PriorityDistribution{0.2, 0.3, 0.5}, 12},
		{[]int{2, 2, 2}, core.NewUniformDistribution(3), 9},
		{[]int{1, 1, 1, 1}, core.NewUniformDistribution(4), 7},
		{[]int{3, 2, 1}, core.PriorityDistribution{0.1, 0.1, 0.8}, 10},
	}
	for _, tc := range cases {
		l := mustLevels(t, tc.sizes...)
		got, err := Eval(core.PLC, l, tc.p, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= l.Count(); k++ {
			k := k
			want := enumerate(tc.m, tc.p, func(counts []int) bool {
				for j := k; j <= l.Count(); j++ {
					if lemma2Event(l, counts, j) {
						return true
					}
				}
				return false
			})
			if math.Abs(got.PrGE[k-1]-want) > 1e-9 {
				t.Errorf("sizes=%v p=%v M=%d: Pr(X>=%d) = %.12f, brute force %.12f",
					tc.sizes, tc.p, tc.m, k, got.PrGE[k-1], want)
			}
		}
	}
}

// TestEventProbMatchesBruteForce cross-checks the exported Lemma-2 event
// probability (the single-event lower bound) against enumeration.
func TestEventProbMatchesBruteForce(t *testing.T) {
	l := mustLevels(t, 1, 2, 3)
	p := core.PriorityDistribution{0.2, 0.3, 0.5}
	const m = 12
	for k := 1; k <= 3; k++ {
		got, err := EventProb(l, p, m, k)
		if err != nil {
			t.Fatal(err)
		}
		want := enumerate(m, p, func(counts []int) bool { return lemma2Event(l, counts, k) })
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Pr(E_%d) = %.12f, brute force %.12f", k, got, want)
		}
		// The event probability is a lower bound on the exact survival.
		exact, err := Eval(core.PLC, l, p, m)
		if err != nil {
			t.Fatal(err)
		}
		if got > exact.PrGE[k-1]+1e-9 {
			t.Errorf("Pr(E_%d) = %g exceeds exact Pr(X>=%d) = %g", k, got, k, exact.PrGE[k-1])
		}
	}
	if _, err := EventProb(l, p, m, 0); err == nil {
		t.Error("EventProb(k=0) succeeded, want error")
	}
	if _, err := EventProb(l, p, m, 4); err == nil {
		t.Error("EventProb(k>n) succeeded, want error")
	}
}

func TestPrGEIsMonotone(t *testing.T) {
	l := mustLevels(t, 4, 4, 4, 4)
	u := core.NewUniformDistribution(4)
	for _, scheme := range []core.Scheme{core.SLC, core.PLC} {
		for _, m := range []int{0, 5, 10, 16, 24, 40} {
			r, err := Eval(scheme, l, u, m)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k < len(r.PrGE); k++ {
				if r.PrGE[k] > r.PrGE[k-1]+1e-12 {
					t.Errorf("%v M=%d: PrGE[%d]=%g > PrGE[%d]=%g",
						scheme, m, k, r.PrGE[k], k-1, r.PrGE[k-1])
				}
			}
		}
	}
}

func TestEXMonotoneInM(t *testing.T) {
	l := mustLevels(t, 5, 10, 15)
	p := core.PriorityDistribution{0.3, 0.3, 0.4}
	for _, scheme := range []core.Scheme{core.SLC, core.PLC} {
		prev := -1.0
		for m := 0; m <= 60; m += 5 {
			r, err := Eval(scheme, l, p, m)
			if err != nil {
				t.Fatal(err)
			}
			if r.EX < prev-1e-9 {
				t.Errorf("%v: E(X) decreased from %g to %g at M=%d", scheme, prev, r.EX, m)
			}
			prev = r.EX
		}
	}
}

func TestEXSaturatesAtN(t *testing.T) {
	l := mustLevels(t, 3, 3)
	u := core.NewUniformDistribution(2)
	for _, scheme := range []core.Scheme{core.SLC, core.PLC} {
		r, err := Eval(scheme, l, u, 200)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.EX-2) > 1e-6 {
			t.Errorf("%v at M=200: E(X) = %g, want ≈ 2", scheme, r.EX)
		}
		if math.Abs(r.PrAll()-1) > 1e-6 {
			t.Errorf("%v at M=200: PrAll = %g, want ≈ 1", scheme, r.PrAll())
		}
	}
}

func TestEXZeroAtZeroBlocks(t *testing.T) {
	l := mustLevels(t, 2, 2)
	u := core.NewUniformDistribution(2)
	for _, scheme := range []core.Scheme{core.RLC, core.SLC, core.PLC} {
		r, err := Eval(scheme, l, u, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.EX != 0 {
			t.Errorf("%v at M=0: E(X) = %g, want 0", scheme, r.EX)
		}
	}
}

// TestPLCDominatesSLC verifies the paper's Theorem-1-of-[14] claim on the
// analysis side: at every M, PLC's expected decoded levels are at least
// SLC's.
func TestPLCDominatesSLC(t *testing.T) {
	l := mustLevels(t, 4, 4, 4, 4, 4)
	u := core.NewUniformDistribution(5)
	for m := 0; m <= 40; m += 4 {
		slc, err := Eval(core.SLC, l, u, m)
		if err != nil {
			t.Fatal(err)
		}
		plc, err := Eval(core.PLC, l, u, m)
		if err != nil {
			t.Fatal(err)
		}
		if plc.EX < slc.EX-1e-9 {
			t.Errorf("M=%d: PLC E(X)=%g < SLC E(X)=%g", m, plc.EX, slc.EX)
		}
	}
}

// TestAnalysisMatchesSimulationSmall is Fig. 4/5 in miniature: the
// analytical curve must track Monte-Carlo simulation of the actual codes.
func TestAnalysisMatchesSimulationSmall(t *testing.T) {
	l := mustLevels(t, 5, 10, 15) // N = 30
	u := core.NewUniformDistribution(3)
	const trials = 300
	for _, scheme := range []core.Scheme{core.SLC, core.PLC} {
		for _, m := range []int{10, 30, 50, 70} {
			r, err := Eval(scheme, l, u, m)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(100*m) + int64(scheme)))
			enc, err := core.NewEncoder(scheme, l, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for trial := 0; trial < trials; trial++ {
				dec, err := core.NewDecoder(scheme, l, 0)
				if err != nil {
					t.Fatal(err)
				}
				blocks, err := enc.EncodeBatch(rng, u, m)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range blocks {
					if _, err := dec.Add(b); err != nil {
						t.Fatal(err)
					}
				}
				sum += float64(dec.DecodedLevels())
			}
			sim := sum / trials
			// 300 trials of a variable bounded by n=3 give a standard error
			// below 0.06; allow analytic-model slack (rank deficiency, PLC
			// lower bound) on top.
			if math.Abs(sim-r.EX) > 0.25 {
				t.Errorf("%v M=%d: analysis E(X)=%.3f, simulation %.3f", scheme, m, r.EX, sim)
			}
		}
	}
}

func TestPrEqTelescopes(t *testing.T) {
	l := mustLevels(t, 3, 3, 3)
	u := core.NewUniformDistribution(3)
	r, err := Eval(core.SLC, l, u, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Σ_k Pr(X = k)·k must reproduce E(X) minus the X=0 mass contribution.
	ex := 0.0
	for k := 0; k < 3; k++ {
		ex += float64(k+1) * r.PrEq(k)
	}
	if math.Abs(ex-r.EX) > 1e-9 {
		t.Errorf("Σ k·Pr(X=k) = %g, E(X) = %g", ex, r.EX)
	}
	if r.PrEq(-1) != 0 || r.PrEq(5) != 0 {
		t.Error("out-of-range PrEq should be 0")
	}
}

func TestCurve(t *testing.T) {
	l := mustLevels(t, 2, 2)
	u := core.NewUniformDistribution(2)
	ms := []int{0, 4, 8, 16}
	rs, err := Curve(core.PLC, l, u, ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(ms) {
		t.Fatalf("curve has %d points, want %d", len(rs), len(ms))
	}
	for i, r := range rs {
		if r.M != ms[i] {
			t.Errorf("point %d: M = %d, want %d", i, r.M, ms[i])
		}
	}
	if _, err := Curve(core.PLC, l, u, []int{-1}); err == nil {
		t.Error("negative M in curve accepted")
	}
}

func TestPrAllEmpty(t *testing.T) {
	if got := (Result{}).PrAll(); got != 0 {
		t.Errorf("empty Result PrAll = %g, want 0", got)
	}
}

func BenchmarkEvalSLCUniform50(b *testing.B) {
	l, err := core.UniformLevels(50, 20)
	if err != nil {
		b.Fatal(err)
	}
	u := core.NewUniformDistribution(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(core.SLC, l, u, 1100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalPLCUniform50(b *testing.B) {
	l, err := core.UniformLevels(50, 20)
	if err != nil {
		b.Fatal(err)
	}
	u := core.NewUniformDistribution(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(core.PLC, l, u, 1100); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPrEqIsADistribution: the exact-level probabilities Pr(X = k) derived
// by telescoping must be nonnegative and sum (with the X = 0 mass) to 1.
func TestPrEqIsADistribution(t *testing.T) {
	l := mustLevels(t, 3, 5, 7, 4)
	p := core.PriorityDistribution{0.3, 0.3, 0.2, 0.2}
	for _, scheme := range []core.Scheme{core.SLC, core.PLC} {
		for _, m := range []int{0, 10, 19, 25, 38, 60} {
			r, err := Eval(scheme, l, p, m)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for k := 0; k < l.Count(); k++ {
				pe := r.PrEq(k)
				if pe < 0 {
					t.Fatalf("%v M=%d: Pr(X=%d) = %g < 0", scheme, m, k+1, pe)
				}
				sum += pe
			}
			prZero := 1 - r.PrGE[0]
			if total := sum + prZero; math.Abs(total-1) > 1e-9 {
				t.Errorf("%v M=%d: probabilities sum to %g", scheme, m, total)
			}
		}
	}
}

func TestFacadeAnalysis(t *testing.T) {
	levels, err := core.UniformLevels(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Eval(core.PLC, levels, core.NewUniformDistribution(3), 60)
	if err != nil {
		t.Fatal(err)
	}
	if r.EX < 2.5 {
		t.Errorf("E(X) at 2N blocks = %g, want near 3", r.EX)
	}
	curve, err := Curve(core.SLC, levels, core.NewUniformDistribution(3), []int{0, 30, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 || curve[0].EX != 0 {
		t.Errorf("curve = %+v", curve)
	}
}
