// Package prlc is a Go implementation of Priority Random Linear Codes for
// differentiated data persistence in autonomous networks (Lin, Li, Liang —
// ICDCS 2007).
//
// Measurement data produced inside a P2P overlay or sensor network is
// partitioned into priority levels and stored within the network itself as
// coded blocks. Unlike classic Random Linear Codes, whose decoding is all
// or nothing, the two priority schemes allow partial recovery in priority
// order when churn and failures leave too few blocks for full recovery:
//
//   - SLC (Stacked Linear Codes) codes each priority level independently;
//   - PLC (Progressive Linear Codes) codes level k over all blocks of
//     levels 1..k, decoding progressively via incremental elimination
//     and strictly dominating SLC.
//
// This root package holds no code, only the benchmarks that regenerate
// the paper's figures and tables (bench_test.go). Each layer lives in
// its own package, and the programs under cmd/ and examples/ call them
// directly:
//
//   - internal/core: Levels, Encoder, Decoder, CodedBlock and Recombine,
//     the code of Sec. 3 and its decode-free repair primitive.
//   - internal/analysis: Eval and MinBlocks, the Sec. 3.3 numerical model.
//   - internal/feasibility: Solve and Optimize, the Sec. 3.4 design of a
//     priority distribution from decoding constraints or utilities.
//   - internal/predist, internal/gpsr, internal/chord, internal/geom: the
//     Sec. 4 pre-distribution protocol over GPSR or a Chord ring.
//   - internal/collect: pulls coded blocks into a decoder until a target.
//   - internal/store, internal/diskstore, internal/repair, internal/mover:
//     the networked block store, its placement ring, and the healer that
//     regenerates and re-homes what churn displaced.
//
// Everything is deterministic given explicit *rand.Rand seeds.
package prlc
