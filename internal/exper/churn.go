package exper

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/gpsr"
	"repro/internal/netsim"
	"repro/internal/predist"
)

// Churn experiment: instead of the paper's one-shot failure snapshot, run
// the Sec. 2 network model on a time axis. Sensors pre-distribute coded
// measurement data at t = 0, then die at exponentially distributed times
// (the memoryless churn model); a collector snapshots the network at the
// configured sample times and records how many priority levels the
// surviving caches still decode. A sample at time t sees exactly the
// nodes whose lifetime exceeds t.

// ChurnConfig parameterizes a persistence-under-churn run on a sensor
// field.
type ChurnConfig struct {
	Scheme core.Scheme
	Levels *core.Levels
	Dist   core.PriorityDistribution
	// Nodes and Radius shape the unit-disk deployment.
	Nodes  int
	Radius float64
	// M is the cache-location count; Fanout the per-block dissemination
	// fanout (0 = dense).
	M      int
	Fanout int
	// MeanLifetime is the exponential mean node lifetime.
	MeanLifetime float64
	// SampleTimes are the collection snapshot instants.
	SampleTimes []float64
	// Trials per sample point (0 = 50).
	Trials int
	Seed   int64
}

func (c ChurnConfig) validate() error {
	if c.Levels == nil {
		return fmt.Errorf("exper: nil levels")
	}
	if !c.Scheme.Valid() {
		return fmt.Errorf("exper: invalid scheme %v", c.Scheme)
	}
	if err := c.Dist.Validate(c.Levels); err != nil {
		return err
	}
	if c.Nodes <= 0 || c.Radius <= 0 || c.M <= 0 {
		return fmt.Errorf("exper: nodes %d, radius %g, M %d must be positive", c.Nodes, c.Radius, c.M)
	}
	if c.MeanLifetime <= 0 {
		return fmt.Errorf("exper: mean lifetime %g, want > 0", c.MeanLifetime)
	}
	if len(c.SampleTimes) == 0 {
		return fmt.Errorf("exper: no sample times")
	}
	for _, t := range c.SampleTimes {
		if t < 0 {
			return fmt.Errorf("exper: negative sample time %g", t)
		}
	}
	return nil
}

// ChurnPoint is one timeline sample: at time T, AliveFrac of the nodes
// survive on average and the collector decodes Mean levels (± CI95).
type ChurnPoint struct {
	T         float64
	AliveFrac float64
	Mean      float64
	CI95      float64
}

// PersistenceUnderChurn runs the timeline experiment and returns one
// point per sample time.
func PersistenceUnderChurn(cfg ChurnConfig) ([]ChurnPoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	trials := cfg.Trials
	if trials == 0 {
		trials = 50
	}
	times := append([]float64(nil), cfg.SampleTimes...)
	sort.Float64s(times)

	levelsAt := make([][]float64, len(times))
	aliveAt := make([][]float64, len(times))
	for i := range times {
		levelsAt[i] = make([]float64, 0, trials)
		aliveAt[i] = make([]float64, 0, trials)
	}

	for trial := 0; trial < trials; trial++ {
		if err := churnTrial(cfg, times, cfg.Seed+int64(trial)*7_919, func(i int, alive, levels float64) {
			aliveAt[i] = append(aliveAt[i], alive)
			levelsAt[i] = append(levelsAt[i], levels)
		}); err != nil {
			return nil, fmt.Errorf("trial %d: %w", trial, err)
		}
	}

	out := make([]ChurnPoint, len(times))
	for i, t := range times {
		ls := dist.Summarize(levelsAt[i])
		as := dist.Summarize(aliveAt[i])
		out[i] = ChurnPoint{T: t, AliveFrac: as.Mean, Mean: ls.Mean, CI95: ls.CI95}
	}
	return out, nil
}

// churnTrial runs one deployment through its failure timeline, invoking
// record(sampleIndex, aliveFraction, decodedLevels) at each sample time.
func churnTrial(cfg ChurnConfig, times []float64, seed int64, record func(int, float64, float64)) error {
	rng := rand.New(rand.NewSource(seed))

	g, err := geom.ConnectedUnitDisk(rng, cfg.Nodes, cfg.Radius)
	if err != nil {
		return err
	}
	router, err := gpsr.New(g)
	if err != nil {
		return err
	}
	tr, err := predist.NewGeoTransport(router, cfg.Nodes)
	if err != nil {
		return err
	}

	dep, err := predist.NewDeployment(predist.Config{
		Scheme: cfg.Scheme, Levels: cfg.Levels, Dist: cfg.Dist,
		M: cfg.M, Seed: seed, Fanout: cfg.Fanout,
	})
	if err != nil {
		return err
	}
	if err := dep.ResolveOwners(tr); err != nil {
		return err
	}
	for blk := 0; blk < cfg.Levels.Total(); blk++ {
		if err := dep.Disseminate(rng, tr, rng.Intn(cfg.Nodes), blk, nil); err != nil {
			return err
		}
	}

	// Timeline: failures at exponential lifetimes, snapshots at the
	// ascending sample times.
	lifetimes, err := netsim.Lifetimes(rng, cfg.Nodes, cfg.MeanLifetime)
	if err != nil {
		return err
	}
	for i, t := range times {
		alive, aliveCount := survivors(lifetimes, t)
		blocks := dep.CodedBlocks(alive)
		dec, err := core.NewDecoder(cfg.Scheme, cfg.Levels, 0)
		if err != nil {
			return err
		}
		res, err := collect.Run(collect.Shuffle(rng, blocks), dec, collect.Options{})
		if err != nil {
			return err
		}
		record(i, float64(aliveCount)/float64(cfg.Nodes), float64(res.DecodedLevels))
	}
	return nil
}

// survivors reports which nodes are alive at time t, and how many: a node
// is alive iff its lifetime exceeds t, so a death at a sample's own
// instant counts before the snapshot.
func survivors(lifetimes []float64, t float64) (alive func(int) bool, count int) {
	for _, life := range lifetimes {
		if life > t {
			count++
		}
	}
	return func(node int) bool { return lifetimes[node] > t }, count
}
