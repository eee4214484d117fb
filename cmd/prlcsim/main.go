// Command prlcsim runs an end-to-end differentiated-persistence simulation:
// it builds a network substrate (a GPSR sensor field or a Chord overlay),
// pre-distributes priority-coded measurement data with the Sec. 4 protocol,
// kills a sweep of node fractions, and reports how many priority levels a
// collector recovers from the survivors, along with the dissemination cost.
//
// Usage:
//
//	prlcsim -network sensor -nodes 200 -levels 10,20,70 -m 300 \
//	        -dist 0.5,0.25,0.25 -scheme plc -fail 0,0.2,0.4,0.6,0.8
//	prlcsim -network chord -nodes 500 -fanout 21 -twochoices
//	prlcsim -lifetime 20 -times 0,10,20,40    # churn timeline instead of sweep
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/chord"
	"repro/internal/cliutil"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/geom"
	"repro/internal/gpsr"
	"repro/internal/netsim"
	"repro/internal/predist"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prlcsim:", err)
		os.Exit(1)
	}
}

type config struct {
	network    string
	nodes      int
	radius     float64
	levels     []int
	dist       []float64
	scheme     core.Scheme
	m          int
	fanout     int
	twoChoices bool
	fails      []float64
	trials     int
	payload    int
	seed       int64
	lifetime   float64
	times      []float64
}

func parseConfig(args []string) (config, error) {
	fs := flag.NewFlagSet("prlcsim", flag.ContinueOnError)
	var (
		cfg       config
		levelsStr string
		distStr   string
		schemeStr string
		failStr   string
	)
	fs.StringVar(&cfg.network, "network", "sensor", "substrate: sensor (GPSR) or chord (DHT)")
	fs.IntVar(&cfg.nodes, "nodes", 250, "number of nodes")
	fs.Float64Var(&cfg.radius, "radius", 0.15, "sensor radio range (sensor network only; sparse fields inflate GHT home-perimeter tours)")
	fs.StringVar(&levelsStr, "levels", "10,20,70", "comma-separated source blocks per priority level")
	fs.StringVar(&distStr, "dist", "", "comma-separated priority distribution (default uniform)")
	fs.StringVar(&schemeStr, "scheme", "plc", "coding scheme: rlc, slc or plc")
	fs.IntVar(&cfg.m, "m", 300, "number of cache locations (coded blocks)")
	fs.IntVar(&cfg.fanout, "fanout", 0, "per-source-block dissemination fanout (0 = dense)")
	fs.BoolVar(&cfg.twoChoices, "twochoices", false, "power-of-two-choices cache placement")
	fs.StringVar(&failStr, "fail", "0,0.2,0.4,0.6,0.8", "comma-separated node failure fractions to sweep")
	fs.IntVar(&cfg.trials, "trials", 20, "collection trials per failure fraction")
	fs.IntVar(&cfg.payload, "payload", 16, "payload bytes per source block")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	var timesStr string
	fs.Float64Var(&cfg.lifetime, "lifetime", 0, "mean exponential node lifetime; > 0 switches to the churn-timeline mode (sensor network only)")
	fs.StringVar(&timesStr, "times", "0,10,20,40", "comma-separated snapshot times for the churn timeline")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if err := cliutil.Finite("-radius", cfg.radius); err != nil {
		return config{}, err
	}
	if err := cliutil.Finite("-lifetime", cfg.lifetime); err != nil {
		return config{}, err
	}
	if timesStr != "" {
		var err error
		if cfg.times, err = cliutil.ParseFloats(timesStr); err != nil {
			return config{}, fmt.Errorf("-times: %w", err)
		}
	}
	var err error
	if cfg.levels, err = cliutil.ParseInts(levelsStr); err != nil {
		return config{}, fmt.Errorf("-levels: %w", err)
	}
	if distStr == "" {
		cfg.dist = core.NewUniformDistribution(len(cfg.levels))
	} else if cfg.dist, err = cliutil.ParseFloats(distStr); err != nil {
		return config{}, fmt.Errorf("-dist: %w", err)
	}
	if cfg.scheme, err = core.ParseScheme(schemeStr); err != nil {
		return config{}, err
	}
	if cfg.fails, err = cliutil.ParseFloats(failStr); err != nil {
		return config{}, fmt.Errorf("-fail: %w", err)
	}
	return cfg, nil
}

func run(args []string) error {
	cfg, err := parseConfig(args)
	if err != nil {
		return err
	}
	levels, err := core.NewLevels(cfg.levels...)
	if err != nil {
		return err
	}
	dist := core.PriorityDistribution(cfg.dist)
	if err := dist.Validate(levels); err != nil {
		return err
	}
	if cfg.lifetime > 0 {
		return runChurn(cfg, levels, dist)
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	// Build the substrate.
	var tr predist.Transport
	switch cfg.network {
	case "sensor":
		g, err := geom.ConnectedUnitDisk(rng, cfg.nodes, cfg.radius)
		if err != nil {
			return fmt.Errorf("%w; raise -radius", err)
		}
		router, err := gpsr.New(g)
		if err != nil {
			return err
		}
		if tr, err = predist.NewGeoTransport(router, cfg.nodes); err != nil {
			return err
		}
	case "chord":
		ring, err := chord.NewRandom(rng, cfg.nodes)
		if err != nil {
			return err
		}
		if tr, err = predist.NewDHTTransport(ring); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown network %q (want sensor or chord)", cfg.network)
	}

	// Pre-distribute.
	dep, err := predist.NewDeployment(predist.Config{
		Scheme: cfg.scheme, Levels: levels, Dist: dist,
		M: cfg.m, Seed: cfg.seed, Fanout: cfg.fanout,
		TwoChoices: cfg.twoChoices, PayloadLen: cfg.payload,
	})
	if err != nil {
		return err
	}
	if err := dep.ResolveOwners(tr); err != nil {
		return err
	}
	payload := make([]byte, cfg.payload)
	for blk := 0; blk < levels.Total(); blk++ {
		rng.Read(payload)
		if err := dep.Disseminate(rng, tr, rng.Intn(cfg.nodes), blk, payload); err != nil {
			return err
		}
	}
	st := dep.Stats()
	fmt.Printf("network: %s, %d nodes; scheme: %s; N = %d source blocks in %d levels; M = %d caches\n",
		cfg.network, cfg.nodes, cfg.scheme, levels.Total(), levels.Count(), cfg.m)
	fmt.Printf("dissemination: %d messages, %d hops (%.1f msgs/block, %.1f hops/msg), max cache load %d\n",
		st.Messages, st.Hops,
		float64(st.Messages)/float64(levels.Total()),
		float64(st.Hops)/float64(maxInt(st.Messages, 1)),
		dep.MaxLoad())

	// Failure sweep.
	fmt.Printf("\n%-8s %-10s %-14s %-14s %-12s\n", "fail", "caches", "levels(mean)", "blocks(mean)", "full-recovery")
	for _, f := range cfg.fails {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("failure fraction %g outside [0, 1]", f)
		}
		var sumLevels, sumBlocks, full float64
		caches := 0
		for trial := 0; trial < cfg.trials; trial++ {
			victims, err := netsim.FailFraction(rng, cfg.nodes, f)
			if err != nil {
				return err
			}
			dead := make(map[int]bool, len(victims))
			for _, v := range victims {
				dead[v] = true
			}
			blocks := dep.CodedBlocks(func(n int) bool { return !dead[n] })
			caches = len(blocks)
			dec, err := core.NewDecoder(cfg.scheme, levels, cfg.payload)
			if err != nil {
				return err
			}
			res, err := collect.Run(collect.Shuffle(rng, blocks), dec, collect.Options{})
			if err != nil {
				return err
			}
			sumLevels += float64(res.DecodedLevels)
			sumBlocks += float64(res.DecodedBlocks)
			if res.Complete {
				full++
			}
		}
		t := float64(cfg.trials)
		fmt.Printf("%-8.2f %-10d %-14.2f %-14.1f %-12.2f\n",
			f, caches, sumLevels/t, sumBlocks/t, full/t)
	}
	return nil
}

// runChurn runs the timeline mode: exponential lifetimes, snapshot
// collections at the configured times.
func runChurn(cfg config, levels *core.Levels, dist core.PriorityDistribution) error {
	if cfg.network != "sensor" {
		return fmt.Errorf("churn timeline supports only -network sensor")
	}
	pts, err := exper.PersistenceUnderChurn(exper.ChurnConfig{
		Scheme:       cfg.scheme,
		Levels:       levels,
		Dist:         dist,
		Nodes:        cfg.nodes,
		Radius:       cfg.radius,
		M:            cfg.m,
		Fanout:       cfg.fanout,
		MeanLifetime: cfg.lifetime,
		SampleTimes:  cfg.times,
		Trials:       cfg.trials,
		Seed:         cfg.seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("churn timeline: %d nodes, mean lifetime %.1f, scheme %s, N = %d, M = %d\n\n",
		cfg.nodes, cfg.lifetime, cfg.scheme, levels.Total(), cfg.m)
	fmt.Printf("%-10s %-8s %-14s\n", "time", "alive%", "levels(mean)")
	for _, p := range pts {
		fmt.Printf("%-10.1f %-8.0f %.2f±%.2f\n", p.T, p.AliveFrac*100, p.Mean, p.CI95)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
