// Package exper is the experiment harness behind Sec. 5: it produces
// decoding curves — expected decoded priority levels against the number of
// processed coded blocks — by Monte-Carlo simulation of the actual codes
// (mean and 95% confidence interval over independent trials, 100 by
// default as in the paper) and by the analytical model, and packages every
// table and figure of the evaluation as a reproducible runner.
package exper

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dist"
)

// CurvePoint is one decoding-curve sample at M processed coded blocks.
type CurvePoint struct {
	M float64
	// Mean and CI95 are the simulated expected decoded levels and its 95%
	// confidence half-width.
	Mean float64
	CI95 float64
	// Analysis is the model's E(X); NaN-free zero when not computed.
	Analysis float64
	// HasAnalysis reports whether Analysis was computed for this point.
	HasAnalysis bool
}

// Curve is a full decoding curve for one scheme and distribution.
type Curve struct {
	Name   string
	Scheme core.Scheme
	Points []CurvePoint
}

// CurveConfig parameterizes a decoding-curve experiment.
type CurveConfig struct {
	Name   string
	Scheme core.Scheme
	Levels *core.Levels
	Dist   core.PriorityDistribution
	// Ms are the checkpoints (numbers of processed coded blocks).
	Ms []int
	// Trials is the number of independent simulation runs per point
	// (0 = 100, the paper's setting).
	Trials int
	// Seed makes the simulation reproducible.
	Seed int64
	// WithAnalysis also evaluates the analytical model at every
	// checkpoint.
	WithAnalysis bool
}

func (c CurveConfig) validate() error {
	if c.Levels == nil {
		return fmt.Errorf("exper: nil levels")
	}
	if !c.Scheme.Valid() {
		return fmt.Errorf("exper: invalid scheme %v", c.Scheme)
	}
	if err := c.Dist.Validate(c.Levels); err != nil {
		return err
	}
	if len(c.Ms) == 0 {
		return fmt.Errorf("exper: no checkpoints given")
	}
	for _, m := range c.Ms {
		if m < 0 {
			return fmt.Errorf("exper: negative checkpoint %d", m)
		}
	}
	return nil
}

// SimulateCurve runs the Monte-Carlo experiment: for each trial it streams
// randomly generated coded blocks into a partial decoder, recording the
// decoded-level count at every checkpoint, then aggregates means and 95%
// confidence intervals. Trials run in parallel on GOMAXPROCS workers (at
// most one per trial); results do not depend on GOMAXPROCS because each
// trial derives its own seeded generator.
func SimulateCurve(cfg CurveConfig) (*Curve, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	trials := cfg.Trials
	if trials == 0 {
		trials = 100
	}
	workers := min(runtime.GOMAXPROCS(0), trials)

	ms := append([]int(nil), cfg.Ms...)
	sort.Ints(ms)

	// levelsAt[t][i] is trial t's decoded-level count at checkpoint i;
	// worker w runs trials w, w+workers, ...
	levelsAt := make([][]int, trials)
	errs := make([]error, trials)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := w; t < trials; t += workers {
				levelsAt[t], errs[t] = runTrial(cfg, ms, cfg.Seed+int64(t)*1_000_003)
			}
		}()
	}
	wg.Wait()
	for t, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", t, err)
		}
	}

	curve := &Curve{Name: cfg.Name, Scheme: cfg.Scheme, Points: make([]CurvePoint, len(ms))}
	samples := make([]float64, trials)
	for i, m := range ms {
		for t := 0; t < trials; t++ {
			samples[t] = float64(levelsAt[t][i])
		}
		s := dist.Summarize(samples)
		curve.Points[i] = CurvePoint{M: float64(m), Mean: s.Mean, CI95: s.CI95}
		if cfg.WithAnalysis {
			r, err := analysis.Eval(cfg.Scheme, cfg.Levels, cfg.Dist, m)
			if err != nil {
				return nil, err
			}
			curve.Points[i].Analysis = r.EX
			curve.Points[i].HasAnalysis = true
		}
	}
	return curve, nil
}

// runTrial collects up to the last checkpoint's count of freshly encoded
// random blocks and returns the decoded-level count at each checkpoint.
func runTrial(cfg CurveConfig, ms []int, seed int64) ([]int, error) {
	rng := rand.New(rand.NewSource(seed))
	enc, err := core.NewEncoder(cfg.Scheme, cfg.Levels, nil)
	if err != nil {
		return nil, err
	}
	dec, err := core.NewDecoder(cfg.Scheme, cfg.Levels, 0)
	if err != nil {
		return nil, err
	}
	sampler, err := dist.NewCategorical(cfg.Dist)
	if err != nil {
		return nil, err
	}
	// A block is only generated when the collector asks for one, so a
	// trial that completes early draws nothing more.
	drawn := 0
	src := func() (*core.CodedBlock, error) {
		if drawn == ms[len(ms)-1] {
			return nil, io.EOF
		}
		drawn++
		return enc.Encode(rng, sampler.Draw(rng))
	}
	res, err := collect.Run(src, dec, collect.Options{Checkpoints: ms})
	if err != nil {
		return nil, err
	}
	if len(res.Rejected) > 0 {
		return nil, res.Rejected[0].Err
	}
	return res.LevelsAt, nil
}

// Steps returns the inclusive integer sweep {from, from+step, ..., to},
// the usual checkpoint grid for decoding curves.
func Steps(from, to, step int) []int {
	if step <= 0 || to < from {
		return nil
	}
	out := make([]int, 0, (to-from)/step+1)
	for m := from; m <= to; m += step {
		out = append(out, m)
	}
	return out
}
