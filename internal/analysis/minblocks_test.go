package analysis

import (
	"testing"

	"repro/internal/core"
)

func TestMinBlocksValidation(t *testing.T) {
	l := mustLevels(t, 5, 5)
	u := core.NewUniformDistribution(2)
	if _, err := MinBlocks(core.PLC, l, u, 0, 0.9, 100); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := MinBlocks(core.PLC, l, u, 3, 0.9, 100); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := MinBlocks(core.PLC, l, u, 1, 0, 100); err == nil {
		t.Error("prob=0 accepted")
	}
	if _, err := MinBlocks(core.PLC, l, u, 1, 1.5, 100); err == nil {
		t.Error("prob>1 accepted")
	}
	if _, err := MinBlocks(core.PLC, nil, u, 1, 0.9, 100); err == nil {
		t.Error("nil levels accepted")
	}
}

func TestMinBlocksMatchesForwardEval(t *testing.T) {
	l := mustLevels(t, 4, 8)
	u := core.NewUniformDistribution(2)
	for _, tc := range []struct {
		k    int
		prob float64
	}{{1, 0.5}, {1, 0.95}, {2, 0.5}, {2, 0.9}} {
		m, err := MinBlocks(core.PLC, l, u, tc.k, tc.prob, 200)
		if err != nil {
			t.Fatalf("k=%d prob=%g: %v", tc.k, tc.prob, err)
		}
		// Verify the defining property: reaches at m, misses at m-1.
		at, err := Eval(core.PLC, l, u, m)
		if err != nil {
			t.Fatal(err)
		}
		if at.PrGE[tc.k-1] < tc.prob {
			t.Errorf("k=%d prob=%g: Pr at M=%d is %g < prob", tc.k, tc.prob, m, at.PrGE[tc.k-1])
		}
		if m > 0 {
			below, err := Eval(core.PLC, l, u, m-1)
			if err != nil {
				t.Fatal(err)
			}
			if below.PrGE[tc.k-1] >= tc.prob {
				t.Errorf("k=%d prob=%g: M=%d not minimal (%g at M-1)",
					tc.k, tc.prob, m, below.PrGE[tc.k-1])
			}
		}
	}
}

func TestMinBlocksMonotoneInK(t *testing.T) {
	l := mustLevels(t, 3, 6, 9)
	u := core.NewUniformDistribution(3)
	prev := 0
	for k := 1; k <= 3; k++ {
		m, err := MinBlocks(core.SLC, l, u, k, 0.8, 300)
		if err != nil {
			t.Fatal(err)
		}
		if m < prev {
			t.Errorf("MinBlocks decreased at k=%d: %d < %d", k, m, prev)
		}
		prev = m
	}
}

func TestMinBlocksUnreachable(t *testing.T) {
	l := mustLevels(t, 5, 5)
	// No level-1 coded blocks at all under SLC: level 1 can never decode.
	p := core.PriorityDistribution{0, 1}
	if _, err := MinBlocks(core.SLC, l, p, 1, 0.5, 500); err == nil {
		t.Error("unreachable target reported a finite M")
	}
}

func TestMinBlocksDefaultMaxM(t *testing.T) {
	l := mustLevels(t, 2, 2)
	u := core.NewUniformDistribution(2)
	m, err := MinBlocks(core.PLC, l, u, 2, 0.5, 0) // maxM defaulted
	if err != nil {
		t.Fatal(err)
	}
	if m < l.Total() {
		t.Errorf("full recovery with M=%d < N", m)
	}
}

func TestFacadeMinBlocks(t *testing.T) {
	levels, err := core.NewLevels(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MinBlocks(core.PLC, levels, core.NewUniformDistribution(2), 1, 0.9, 200)
	if err != nil {
		t.Fatal(err)
	}
	if m < 4 {
		t.Errorf("MinBlocks = %d, below the level size", m)
	}
}
