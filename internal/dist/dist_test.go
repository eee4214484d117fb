package dist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLogFactorialSmall(t *testing.T) {
	facts := []float64{1, 1, 2, 6, 24, 120, 720}
	for n, f := range facts {
		if got := LogFactorial(n); !almostEqual(got, math.Log(f), 1e-12) {
			t.Errorf("LogFactorial(%d) = %g, want %g", n, got, math.Log(f))
		}
	}
	if got := LogFactorial(-1); !math.IsInf(got, -1) {
		t.Errorf("LogFactorial(-1) = %g, want -Inf", got)
	}
}

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {52, 5, 2598960},
	}
	for _, tc := range cases {
		if got := LogChoose(tc.n, tc.k); !almostEqual(got, math.Log(tc.want), 1e-9) {
			t.Errorf("LogChoose(%d,%d) = %g, want ln(%g)", tc.n, tc.k, got, tc.want)
		}
	}
	if !math.IsInf(LogChoose(5, 6), -1) || !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("out-of-range LogChoose should be -Inf")
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 0.3}, {100, 0.01}, {1000, 0.5}, {7, 0}, {7, 1}} {
		sum := 0.0
		for k := 0; k <= tc.n; k++ {
			sum += BinomialPMF(tc.n, k, tc.p)
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("n=%d p=%g: PMF sums to %g", tc.n, tc.p, sum)
		}
	}
}

func TestSimplex(t *testing.T) {
	if err := Simplex([]float64{0.2, 0.3, 0.5}, 1e-9); err != nil {
		t.Errorf("valid simplex rejected: %v", err)
	}
	if err := Simplex([]float64{0.5, 0.6}, 1e-9); err == nil {
		t.Error("sum > 1 accepted")
	}
	if err := Simplex([]float64{-0.1, 1.1}, 1e-9); err == nil {
		t.Error("negative entry accepted")
	}
	for _, p := range [][]float64{
		{math.NaN(), 1},
		{math.Inf(1), 1},
		{math.Inf(-1), 1},
		{0.5, math.NaN(), 0.5},
	} {
		if err := Simplex(p, 1e-9); err == nil {
			t.Errorf("non-finite entry accepted: %v", p)
		}
	}
}

func TestApportion(t *testing.T) {
	cases := []struct {
		shares []float64
		total  int
		want   []int
	}{
		{[]float64{0.5, 0.5}, 10, []int{5, 5}},
		{[]float64{0.3, 0.3, 0.4}, 10, []int{3, 3, 4}},
		// Largest remainder: 1/3 of 10 = 3.33 each; the extra unit goes
		// to the most critical level on a remainder tie.
		{[]float64{1, 1, 1}, 10, []int{4, 3, 3}},
		// Unnormalized shares are fine — only ratios matter.
		{[]float64{2, 6}, 4, []int{1, 3}},
		{[]float64{1}, 7, []int{7}},
		{[]float64{0.9, 0.1}, 0, []int{0, 0}},
	}
	for _, c := range cases {
		got, err := Apportion(c.shares, c.total)
		if err != nil {
			t.Fatalf("Apportion(%v, %d): %v", c.shares, c.total, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("Apportion(%v, %d) = %v, want %v", c.shares, c.total, got, c.want)
		}
		sum := 0
		for _, n := range got {
			sum += n
		}
		if sum != c.total {
			t.Fatalf("Apportion(%v, %d) sums to %d", c.shares, c.total, sum)
		}
	}
	for _, bad := range []struct {
		why    string
		shares []float64
		total  int
	}{
		{"negative share", []float64{0.5, -0.1}, 10},
		{"zero-sum distribution", []float64{0, 0}, 10},
		{"NaN share", []float64{math.NaN(), 1}, 10},
		{"+Inf share", []float64{math.Inf(1), 1}, 10},
		{"-Inf share", []float64{math.Inf(-1), 1}, 10},
		{"overflowing sum", []float64{math.MaxFloat64, math.MaxFloat64}, 10},
		{"negative total", []float64{1, 1}, -1},
	} {
		if got, err := Apportion(bad.shares, bad.total); err == nil {
			t.Fatalf("%s accepted: Apportion(%v, %d) = %v", bad.why, bad.shares, bad.total, got)
		}
	}
}

func TestProjectToSimplexFixedPoints(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	got := ProjectToSimplex(p)
	for i := range p {
		if !almostEqual(got[i], p[i], 1e-12) {
			t.Errorf("projection moved a simplex point: %v -> %v", p, got)
		}
	}
}

func TestProjectToSimplexKnown(t *testing.T) {
	// Projection of (1,1) onto the simplex is (0.5, 0.5).
	got := ProjectToSimplex([]float64{1, 1})
	if !almostEqual(got[0], 0.5, 1e-12) || !almostEqual(got[1], 0.5, 1e-12) {
		t.Errorf("project (1,1) = %v, want (0.5,0.5)", got)
	}
	// Strongly negative coordinates clip to zero.
	got = ProjectToSimplex([]float64{-5, 1})
	if !almostEqual(got[0], 0, 1e-12) || !almostEqual(got[1], 1, 1e-12) {
		t.Errorf("project (-5,1) = %v, want (0,1)", got)
	}
	if got := ProjectToSimplex(nil); got != nil {
		t.Errorf("project nil = %v, want nil", got)
	}
}

func TestQuickProjectionIsOnSimplex(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		// Clamp wild inputs to a sane range to avoid Inf/NaN noise.
		v := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = math.Mod(x, 100)
		}
		p := ProjectToSimplex(v)
		return Simplex(p, 1e-6) == nil
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestUniform(t *testing.T) {
	if got := Uniform(0); got != nil {
		t.Errorf("Uniform(0) = %v, want nil", got)
	}
	u := Uniform(4)
	for _, v := range u {
		if !almostEqual(v, 0.25, 1e-15) {
			t.Errorf("Uniform(4) = %v", u)
		}
	}
}

func TestCategoricalRejectsInvalid(t *testing.T) {
	if _, err := NewCategorical(nil); err == nil {
		t.Error("empty distribution accepted")
	}
	if _, err := NewCategorical([]float64{0.5, 0.6}); err == nil {
		t.Error("non-simplex distribution accepted")
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	p := []float64{0.1, 0.2, 0.3, 0.4}
	c, err := NewCategorical(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	counts := MultinomialDraw(rng, n, c)
	for i, want := range p {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency %g, want %g±0.01", i, got, want)
		}
	}
}

func TestCategoricalDegenerate(t *testing.T) {
	c, err := NewCategorical([]float64{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 1000; i++ {
		if got := c.Draw(rng); got != 1 {
			t.Fatalf("degenerate distribution drew %d, want 1", got)
		}
	}
}

func TestCategoricalSingle(t *testing.T) {
	c, err := NewCategorical([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	if got := c.Draw(rng); got != 0 {
		t.Errorf("single-category draw = %d, want 0", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("Summarize(nil) = %+v", s)
	}
	if s := Summarize([]float64{5}); s.N != 1 || s.Mean != 5 || s.StdDev != 0 {
		t.Errorf("Summarize single = %+v", s)
	}
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Errorf("mean = %g, want 5", s.Mean)
	}
	// Sample (Bessel) stddev of this classic set is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); !almostEqual(s.StdDev, want, 1e-12) {
		t.Errorf("stddev = %g, want %g", s.StdDev, want)
	}
	if !almostEqual(s.CI95, 1.96*s.StdDev/math.Sqrt(8), 1e-12) {
		t.Errorf("CI95 = %g", s.CI95)
	}
}

func BenchmarkCategoricalDraw(b *testing.B) {
	c, err := NewCategorical(Uniform(50))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Draw(rng)
	}
}
