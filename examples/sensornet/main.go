// Sensornet: the paper's sensor-network scenario end to end. A field of
// sensors takes periodic measurements at three priority levels (alarm
// summaries, aggregates, raw samples), pre-distributes them as PLC coded
// blocks over GPSR routing with the O(ln N) fanout, then suffers
// escalating node failures; a collector recovers what survives, most
// important data first.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/gpsr"
	"repro/internal/predist"
)

const (
	numSensors = 250
	radioRange = 0.15
	numCaches  = 300
	payloadLen = 24
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7))

	// Deploy the field.
	graph, err := geom.ConnectedUnitDisk(rng, numSensors, radioRange)
	if err != nil {
		return err
	}
	router, err := gpsr.New(graph)
	if err != nil {
		return err
	}
	transport, err := predist.NewGeoTransport(router, numSensors)
	if err != nil {
		return err
	}
	fmt.Printf("sensor field: %d nodes, radio range %.2f, connected=%v\n",
		numSensors, radioRange, graph.Connected())

	// Three measurement classes.
	levels, err := core.NewLevels(8, 24, 68) // N = 100
	if err != nil {
		return err
	}
	dist := core.PriorityDistribution{0.40, 0.30, 0.30}

	dep, err := predist.NewDeployment(predist.Config{
		Scheme:     core.PLC,
		Levels:     levels,
		Dist:       dist,
		M:          numCaches,
		Seed:       99, // the network-wide common random seed
		Fanout:     3 * core.LogSparsity(levels.Total()),
		TwoChoices: true,
		PayloadLen: payloadLen,
	})
	if err != nil {
		return err
	}
	if err := dep.ResolveOwners(transport); err != nil {
		return err
	}

	// Each sensor measures; blocks are disseminated from their origin.
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, payloadLen)
		rng.Read(sources[i])
		origin := rng.Intn(numSensors)
		if err := dep.Disseminate(rng, transport, origin, i, sources[i]); err != nil {
			return err
		}
	}
	st := dep.Stats()
	fmt.Printf("pre-distribution: %d messages, %.1f hops/message, max cache load %d\n\n",
		st.Messages, float64(st.Hops)/float64(st.Messages), dep.MaxLoad())

	// Failure sweep: batteries die, storms take out regions.
	fmt.Println("failed%  surviving-caches  levels  alarm-data-intact")
	for _, failFrac := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		dead := make(map[int]bool)
		for node := 0; node < numSensors; node++ {
			if rng.Float64() < failFrac {
				dead[node] = true
			}
		}
		blocks := dep.CodedBlocks(func(node int) bool { return !dead[node] })
		dec, err := core.NewDecoder(core.PLC, levels, payloadLen)
		if err != nil {
			return err
		}
		res, err := collect.Run(collect.Shuffle(rng, blocks), dec, collect.Options{})
		if err != nil {
			return err
		}
		alarmsIntact := res.DecodedLevels >= 1
		if alarmsIntact {
			// Verify the alarm payloads byte for byte.
			for i := 0; i < levels.Size(0); i++ {
				got, err := dec.Source(i)
				if err != nil {
					return err
				}
				if string(got) != string(sources[i]) {
					return fmt.Errorf("alarm block %d corrupted", i)
				}
			}
		}
		fmt.Printf("%6.0f%%  %16d  %6d  %v\n",
			failFrac*100, len(blocks), res.DecodedLevels, alarmsIntact)
	}
	return nil
}
