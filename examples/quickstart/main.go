// Quickstart: encode prioritized data with Progressive Linear Codes,
// receive fewer coded blocks than would be needed for full recovery, and
// watch the important levels decode first.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/core"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 60 source blocks: 10 critical, 20 important, 30 bulk.
	levels, err := core.NewLevels(10, 20, 30)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(42))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = []byte(fmt.Sprintf("measurement-%02d", i))
	}

	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		return err
	}
	dec, err := core.NewDecoder(core.PLC, levels, len(sources[0]))
	if err != nil {
		return err
	}

	// Half the coded blocks carry the critical level: the paper's
	// priority distribution in action.
	dist := core.PriorityDistribution{0.5, 0.25, 0.25}

	fmt.Println("blocks  decoded-levels  decoded-sources")
	for received := 0; !dec.Complete(); received++ {
		if received%10 == 0 {
			fmt.Printf("%6d  %14d  %15d\n", received, dec.DecodedLevels(), dec.DecodedBlocks())
		}
		batch, err := enc.EncodeBatch(rng, dist, 1)
		if err != nil {
			return err
		}
		if _, err := dec.Add(batch[0]); err != nil {
			return err
		}
	}
	fmt.Printf("complete after %d coded blocks\n\n", dec.Received())

	// Every payload survives the round trip.
	for i := range sources {
		got, err := dec.Source(i)
		if err != nil {
			return err
		}
		if string(got) != string(sources[i]) {
			return fmt.Errorf("source %d corrupted: %q", i, got)
		}
	}
	first, err := dec.Source(0)
	if err != nil {
		return err
	}
	fmt.Printf("first source block: %q\n", first)

	// Contrast with plain RLC: nothing decodes below N blocks.
	r, err := analysis.Eval(core.RLC, levels, dist, levels.Total()-1)
	if err != nil {
		return err
	}
	fmt.Printf("RLC with N-1 blocks decodes %.0f levels (all or nothing)\n", r.EX)
	return nil
}
