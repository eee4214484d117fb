package exper

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestSteps(t *testing.T) {
	got := Steps(0, 10, 5)
	want := []int{0, 5, 10}
	if len(got) != len(want) {
		t.Fatalf("Steps = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Steps = %v, want %v", got, want)
		}
	}
	if Steps(5, 4, 1) != nil {
		t.Error("descending Steps should be nil")
	}
	if Steps(0, 10, 0) != nil {
		t.Error("zero stride should be nil")
	}
}

func TestCurveConfigValidation(t *testing.T) {
	l, err := core.UniformLevels(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := CurveConfig{
		Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2), Ms: []int{0, 5},
	}
	if err := good.validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []CurveConfig{
		{Scheme: core.PLC, Dist: core.NewUniformDistribution(2), Ms: []int{1}},
		{Scheme: core.Scheme(9), Levels: l, Dist: core.NewUniformDistribution(2), Ms: []int{1}},
		{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(3), Ms: []int{1}},
		{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2)},
		{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2), Ms: []int{-1}},
	}
	for i, cfg := range bad {
		if _, err := SimulateCurve(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSimulateCurveBasicShape(t *testing.T) {
	l, err := core.UniformLevels(3, 5) // N = 15
	if err != nil {
		t.Fatal(err)
	}
	c, err := SimulateCurve(CurveConfig{
		Name:   "plc",
		Scheme: core.PLC,
		Levels: l,
		Dist:   core.NewUniformDistribution(3),
		Ms:     Steps(0, 40, 5),
		Trials: 60,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 9 {
		t.Fatalf("curve has %d points, want 9", len(c.Points))
	}
	if c.Points[0].Mean != 0 {
		t.Errorf("E at M=0 should be 0, got %g", c.Points[0].Mean)
	}
	last := c.Points[len(c.Points)-1]
	if last.Mean < 2.9 {
		t.Errorf("E at M=40 is %g, want near 3 (saturation)", last.Mean)
	}
	prev := -1.0
	for _, p := range c.Points {
		if p.Mean < prev-0.15 {
			t.Errorf("curve decreased beyond CI noise at M=%g: %g -> %g", p.M, prev, p.Mean)
		}
		prev = p.Mean
		if p.CI95 < 0 {
			t.Errorf("negative CI at M=%g", p.M)
		}
	}
}

// TestSimulateDeterministicAcrossWorkerCounts: trial seeding makes results
// identical whether the trials run on 1 worker or many (GOMAXPROCS 1 or 8).
func TestSimulateDeterministicAcrossWorkerCounts(t *testing.T) {
	l, err := core.UniformLevels(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) *Curve {
		runtime.GOMAXPROCS(procs)
		c, err := SimulateCurve(CurveConfig{
			Scheme: core.SLC, Levels: l, Dist: core.NewUniformDistribution(2),
			Ms: Steps(0, 24, 4), Trials: 20, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(1), run(8)
	for i := range a.Points {
		if a.Points[i].Mean != b.Points[i].Mean || a.Points[i].CI95 != b.Points[i].CI95 {
			t.Fatalf("worker counts disagree at point %d: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

// TestAnalysisVsSimulationSmallScale is Fig. 4/5 at 1/20 scale: the
// analysis series must track the simulation within CI-plus-model slack.
func TestAnalysisVsSimulationSmallScale(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SLC, core.PLC} {
		c, err := AnalysisVsSimulation(scheme, 5, FigureOptions{
			Trials: 60, Seed: 2, Scale: 20, Stride: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range c.Points {
			if !p.HasAnalysis {
				t.Fatalf("%v: missing analysis at M=%g", scheme, p.M)
			}
			if math.Abs(p.Analysis-p.Mean) > 0.35 {
				t.Errorf("%v M=%g: analysis %g vs simulation %g", scheme, p.M, p.Analysis, p.Mean)
			}
		}
	}
}

// TestSLCvsPLCSmallScale is Fig. 6 at reduced scale: PLC must dominate SLC
// at every checkpoint.
func TestSLCvsPLCSmallScale(t *testing.T) {
	slc, plc, err := SLCvsPLC(10, FigureOptions{Trials: 50, Seed: 3, Scale: 10, Stride: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(slc.Points) != len(plc.Points) {
		t.Fatal("panel curves have different grids")
	}
	for i := range slc.Points {
		if plc.Points[i].Mean < slc.Points[i].Mean-0.2 {
			t.Errorf("M=%g: PLC %g below SLC %g", slc.Points[i].M, plc.Points[i].Mean, slc.Points[i].Mean)
		}
	}
}

func TestFig7Validation(t *testing.T) {
	if _, err := Fig7([]core.PriorityDistribution{{1}}, nil, FigureOptions{}); err == nil {
		t.Error("mismatched names accepted")
	}
}

func TestFig7SmallScale(t *testing.T) {
	dists := []core.PriorityDistribution{
		{0.5138, 0.0768, 0.4094},
		{0, 0.6149, 0.3851},
	}
	curves, err := Fig7(dists, []string{"case1", "case2"}, FigureOptions{
		Trials: 30, Seed: 4, Scale: 10, Stride: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("got %d curves", len(curves))
	}
	// Case 1 weights level 0 heavily: its curve must reach level 1 earlier
	// than case 2 (which has no level-0 blocks at all).
	reach := func(c *Curve) float64 {
		for _, p := range c.Points {
			if p.Mean >= 0.9 {
				return p.M
			}
		}
		return math.Inf(1)
	}
	if reach(curves[0]) > reach(curves[1]) {
		t.Errorf("case1 reaches level 1 at M=%g, later than case2 at M=%g",
			reach(curves[0]), reach(curves[1]))
	}
}

func TestRenderCurvesAndCSV(t *testing.T) {
	l, err := core.UniformLevels(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := SimulateCurve(CurveConfig{
		Name: "demo", Scheme: core.PLC, Levels: l,
		Dist: core.NewUniformDistribution(2),
		Ms:   []int{0, 8, 16}, Trials: 10, Seed: 5, WithAnalysis: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderCurves(&buf, "demo title", c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo title", "M", "demo sim", "demo analysis"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII output missing %q:\n%s", want, out)
		}
	}
	if err := RenderCurves(&buf, "x"); err == nil {
		t.Error("RenderCurves with no curves succeeded")
	}

	buf.Reset()
	if err := WriteCurvesCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+3 {
		t.Errorf("CSV has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	if lines[0] != "curve,m,mean,ci95,analysis" {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestRenderTable1Formatting(t *testing.T) {
	cases := []Table1Case{{
		Name:   "Case 1",
		PaperP: core.PriorityDistribution{0.5, 0.25, 0.25},
	}}
	var buf bytes.Buffer
	if err := RenderTable1(&buf, cases); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Case 1", "0.5000/0.2500/0.2500", "false", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

// TestTable1FullSolve reproduces Table 1 end to end (full problem size);
// guarded by -short since each case costs seconds of analysis evaluations.
func TestTable1FullSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 1 feasibility solving is expensive; run without -short")
	}
	cases, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("got %d cases, want 3", len(cases))
	}
	for _, c := range cases {
		if !c.Feasible {
			t.Errorf("%s infeasible: %v", c.Name, c.SolvedP)
		}
		if len(c.SolvedP) != 3 || len(c.PaperP) != 3 {
			t.Errorf("%s has malformed distributions", c.Name)
		}
	}
}
