package exper

import (
	"testing"

	"repro/internal/core"
)

func churnConfig(t testing.TB) ChurnConfig {
	t.Helper()
	l, err := core.NewLevels(3, 6, 11) // N = 20
	if err != nil {
		t.Fatal(err)
	}
	return ChurnConfig{
		Scheme:       core.PLC,
		Levels:       l,
		Dist:         core.PriorityDistribution{0.5, 0.25, 0.25},
		Nodes:        80,
		Radius:       0.2,
		M:            60,
		MeanLifetime: 10,
		SampleTimes:  []float64{0, 5, 15, 40},
		Trials:       8,
		Seed:         1,
	}
}

func TestChurnConfigValidation(t *testing.T) {
	good := churnConfig(t)
	if err := good.validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	mutations := []func(*ChurnConfig){
		func(c *ChurnConfig) { c.Levels = nil },
		func(c *ChurnConfig) { c.Scheme = core.Scheme(0) },
		func(c *ChurnConfig) { c.Dist = core.PriorityDistribution{1} },
		func(c *ChurnConfig) { c.Nodes = 0 },
		func(c *ChurnConfig) { c.Radius = 0 },
		func(c *ChurnConfig) { c.M = 0 },
		func(c *ChurnConfig) { c.MeanLifetime = 0 },
		func(c *ChurnConfig) { c.SampleTimes = nil },
		func(c *ChurnConfig) { c.SampleTimes = []float64{-1} },
	}
	for i, mutate := range mutations {
		cfg := churnConfig(t)
		mutate(&cfg)
		if _, err := PersistenceUnderChurn(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPersistenceUnderChurnTimeline(t *testing.T) {
	pts, err := PersistenceUnderChurn(churnConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	// At t = 0 everything is alive and (with M = 3N caches) decodable.
	if pts[0].AliveFrac < 0.999 {
		t.Errorf("t=0 alive fraction %g, want 1", pts[0].AliveFrac)
	}
	if pts[0].Mean < 2.5 {
		t.Errorf("t=0 decoded levels %g, want near 3", pts[0].Mean)
	}
	// Liveness must decay over time; decoded levels must not increase.
	for i := 1; i < len(pts); i++ {
		if pts[i].AliveFrac > pts[i-1].AliveFrac+1e-9 {
			t.Errorf("alive fraction increased: %+v", pts)
		}
		if pts[i].Mean > pts[i-1].Mean+0.3 {
			t.Errorf("decoded levels increased beyond noise: %+v", pts)
		}
	}
	// By t = 4 mean lifetimes, survival is ~e^-4 ≈ 2%: deep decay.
	last := pts[len(pts)-1]
	if last.AliveFrac > 0.15 {
		t.Errorf("t=40 alive fraction %g, want < 0.15", last.AliveFrac)
	}
	if last.Mean > 1.5 {
		t.Errorf("t=40 decoded levels %g, want heavy loss", last.Mean)
	}
}

func TestPersistenceUnderChurnDeterministic(t *testing.T) {
	cfg := churnConfig(t)
	cfg.Trials = 3
	a, err := PersistenceUnderChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PersistenceUnderChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at point %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// A lifetime equal to a sample time counts as dead at that sample: the
// death fires before the snapshot taken at the same instant.
func TestChurnDeathAtSampleInstantCounts(t *testing.T) {
	lifetimes := []float64{5, 2, 9}
	alive, n := survivors(lifetimes, 5)
	if n != 1 {
		t.Errorf("%d alive at t = 5, want 1 (only the node living to 9)", n)
	}
	for node, want := range []bool{false, false, true} {
		if got := alive(node); got != want {
			t.Errorf("node %d (lifetime %g) alive at t = 5: %v, want %v", node, lifetimes[node], got, want)
		}
	}
	if _, n := survivors(lifetimes, 0); n != 3 {
		t.Errorf("%d alive at t = 0, want 3", n)
	}
}

func TestFacadePersistenceUnderChurn(t *testing.T) {
	levels, err := core.NewLevels(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := PersistenceUnderChurn(ChurnConfig{
		Scheme:       core.PLC,
		Levels:       levels,
		Dist:         core.NewUniformDistribution(2),
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
