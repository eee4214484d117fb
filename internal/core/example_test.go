package core_test

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Example encodes three priority levels with PLC and shows partial
// recovery: the critical level decodes long before the stream completes.
func Example() {
	levels, err := core.NewLevels(2, 4, 6) // 12 source blocks
	if err != nil {
		panic(err)
	}
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = []byte{byte(i), byte(i * 2)}
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		panic(err)
	}
	dec, err := core.NewDecoder(core.PLC, levels, 2)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(7))
	dist := core.PriorityDistribution{0.5, 0.25, 0.25}
	firstLevelAt := 0
	for !dec.Complete() {
		blocks, err := enc.EncodeBatch(rng, dist, 1)
		if err != nil {
			panic(err)
		}
		if _, err := dec.Add(blocks[0]); err != nil {
			panic(err)
		}
		if firstLevelAt == 0 && dec.DecodedLevels() >= 1 {
			firstLevelAt = dec.Received()
		}
	}
	fmt.Printf("critical level decoded after %d blocks, everything after %d\n",
		firstLevelAt, dec.Received())
	payload, err := dec.Source(0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("source 0 = %v\n", payload)
	// Output:
	// critical level decoded after 4 blocks, everything after 24
	// source 0 = [0 0]
}
