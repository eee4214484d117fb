package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/gf256"
	"repro/internal/gfmat"
	"repro/internal/store"
)

// probeInputs is what a workload hands the kernel probes: its geometry,
// one collected stream of its own blocks, and its ring when it has one.
type probeInputs struct {
	g      geometry
	blocks []*core.CodedBlock
	placed *store.Placed
}

// probeBudget is how long each probe loops. The kernels below are not
// reachable from a span around a public store call, so the traced pass
// times each in a short calibrated loop over inputs the workload
// produced.
const probeBudget = 30 * time.Millisecond

// timeLoop calls f until the budget is spent and returns the mean
// nanoseconds per call.
func timeLoop(f func()) float64 {
	f() // warm caches and lazy tables outside the timing
	calls := 0
	start := time.Now()
	for time.Since(start) < probeBudget {
		for i := 0; i < 8; i++ {
			f()
		}
		calls += 8
	}
	return float64(time.Since(start)) / float64(calls)
}

// runProbes fills the probe-backed layer metrics.
func runProbes(in probeInputs, out map[string]float64) {
	if len(in.blocks) == 0 {
		return
	}
	g, blocks := in.g, in.blocks
	rng := rand.New(rand.NewSource(1))

	dst, src := make([]byte, g.payload), make([]byte, g.payload)
	rng.Read(src)
	c := byte(2)
	ns := timeLoop(func() {
		gf256.AddMulSlice(dst, src, c)
		c = c*3 + 1 | 2 // never 0 or 1: those take the cheap paths
	})
	out["gf256.addmul_gb_per_s"] = float64(g.payload) / ns

	b := blocks[len(blocks)-1]
	wire, err := b.MarshalBinary()
	if err != nil {
		return
	}
	out["core.marshal_ns_per_block"] = timeLoop(func() { b.MarshalBinary() })
	var scratch core.CodedBlock
	out["core.unmarshal_ns_per_block"] = timeLoop(func() { scratch.UnmarshalBinary(wire) })

	sample := blocks
	if len(sample) > 8 {
		sample = sample[:8] // the repair and mover default sample size
	}
	out["core.recombine_us_per_block"] = timeLoop(func() {
		core.Recombine(rng, core.PLC, g.lv, sample)
	}) / 1e3

	rows := make([][]byte, 0, len(blocks))
	bare := make([]*core.CodedBlock, 0, len(blocks))
	for _, b := range blocks {
		rows = append(rows, b.DenseCoeff())
		bare = append(bare, &core.CodedBlock{Object: b.Object, Level: b.Level, Coeff: b.Coeff, SpCoeff: b.SpCoeff, Payload: []byte{}})
	}
	if m, err := gfmat.FromRows(rows); err == nil {
		out["gfmat.rank_us"] = timeLoop(func() { m.Rank() }) / 1e3
	}
	// The same stream through the decoder with the payloads left out is
	// the elimination alone.
	out["gfmat.eliminate_ms"] = timeLoop(func() {
		dec, err := core.NewDecoder(core.PLC, g.lv, 0)
		if err != nil {
			return
		}
		for _, b := range bare {
			dec.Add(b)
		}
	}) / 1e6

	if in.placed != nil {
		obj := b.Object
		out["placed.shard_lookup_us"] = timeLoop(func() { in.placed.Shard(obj) }) / 1e3
	}
}
