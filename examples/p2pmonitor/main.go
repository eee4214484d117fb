// P2pmonitor: the paper's P2P monitoring scenario. Peers in a live
// streaming session log health metrics at three priorities — session-wide
// health summaries, per-peer quality indicators, verbose traces — into the
// overlay itself via a Chord DHT. Peers churn in and out; when an operator
// later audits the session, the health summaries survive churn that makes
// full trace recovery impossible.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/chord"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/feasibility"
	"repro/internal/predist"
)

const (
	numPeers   = 400
	numCaches  = 600
	payloadLen = 32
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(2026))

	ring, err := chord.NewRandom(rng, numPeers)
	if err != nil {
		return err
	}
	transport, err := predist.NewDHTTransport(ring)
	if err != nil {
		return err
	}
	fmt.Printf("chord overlay: %d peers\n", numPeers)

	// Monitoring data: 10 session summaries, 40 peer-quality records,
	// 150 verbose trace chunks.
	levels, err := core.NewLevels(10, 40, 150) // N = 200
	if err != nil {
		return err
	}

	// Design the priority distribution from operational requirements: the
	// summaries must be expected to decode from 100 random caches, the
	// quality records from 300 — plus full recovery from 2N caches with
	// probability 0.99 (eq. 10).
	sol, err := feasibility.Solve(feasibility.Problem{
		Scheme: core.PLC,
		Levels: levels,
		Decoding: []feasibility.Constraint{
			{M: 100, MinLevels: 1},
			{M: 300, MinLevels: 2},
		},
		Alpha:   2,
		Epsilon: 0.01,
	}, feasibility.Options{Seed: 5})
	if err != nil {
		return err
	}
	if !sol.Feasible {
		return fmt.Errorf("monitoring requirements infeasible (violation %g)", sol.Violation)
	}
	fmt.Printf("designed priority distribution: %.4f / %.4f / %.4f\n\n",
		sol.P[0], sol.P[1], sol.P[2])

	dep, err := predist.NewDeployment(predist.Config{
		Scheme:     core.PLC,
		Levels:     levels,
		Dist:       sol.P,
		M:          numCaches,
		Seed:       31337,
		PayloadLen: payloadLen,
	})
	if err != nil {
		return err
	}
	if err := dep.ResolveOwners(transport); err != nil {
		return err
	}

	// Peers publish their monitoring records through the DHT.
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, payloadLen)
		copy(sources[i], fmt.Sprintf("metric[%03d]", i))
		origin := rng.Intn(numPeers)
		if err := dep.Disseminate(rng, transport, origin, i, sources[i]); err != nil {
			return err
		}
	}
	st := dep.Stats()
	fmt.Printf("published %d records: %d DHT messages, %.1f hops/lookup\n\n",
		levels.Total(), st.Messages, float64(st.Hops)/float64(st.Messages))

	// Churn: peers leave the session over time.
	fmt.Println("departed%  caches  summaries  quality  traces")
	for _, churn := range []float64{0, 0.3, 0.5, 0.7, 0.85} {
		departed := make(map[int]bool)
		for peer := 0; peer < numPeers; peer++ {
			if rng.Float64() < churn {
				departed[peer] = true
			}
		}
		blocks := dep.CodedBlocks(func(peer int) bool { return !departed[peer] })
		dec, err := core.NewDecoder(core.PLC, levels, payloadLen)
		if err != nil {
			return err
		}
		res, err := collect.Run(collect.Shuffle(rng, blocks), dec, collect.Options{})
		if err != nil {
			return err
		}
		ok := func(level int) string {
			if res.DecodedLevels > level {
				return "recovered"
			}
			return "lost"
		}
		fmt.Printf("%8.0f%%  %6d  %9s  %7s  %6s\n",
			churn*100, len(blocks), ok(0), ok(1), ok(2))
		if res.DecodedLevels >= 1 {
			got, err := dec.Source(0)
			if err != nil {
				return err
			}
			if string(got[:11]) != "metric[000]" {
				return fmt.Errorf("summary record corrupted: %q", got[:11])
			}
		}
	}
	return nil
}
