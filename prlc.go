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
// The package exposes six layers, each as much as the examples use:
//
//   - Coding: Levels, Encoder, Decoder, CodedBlock — encode source blocks
//     into coded blocks and partially decode in priority order.
//   - Analysis: ExpectedDecodedLevels and MinBlocks — the Sec. 3.3
//     numerical model of decoding performance.
//   - Design: DesignDistribution and OptimizeDistribution — the Sec. 3.4
//     feasibility solver that turns decoding constraints (or per-level
//     utilities) into a priority distribution.
//   - Protocol: Deployment plus the GPSR and Chord transports — the
//     Sec. 4 pre-distribution protocol with decentralized encoding
//     (c ← c + βx), O(ln N) fanout, and two-choices load balancing.
//   - Store: StoreServer, StoreClient and PlacedStore — a real-sockets
//     block store daemon, its pooled, retrying client, and the one front
//     end of a fleet: an object-keyed namespace (ObjectID) whose
//     per-object replica sets are resolved by consistent hashing over a
//     ring. Within a replica set the replication factor decreases with
//     priority level, so the critical prefix survives more node losses;
//     key-less data is ZeroObject on the ring.
//   - Repair: Recombine and NewObjectRepairDaemon — decode-free
//     regeneration of redundancy lost to churn, by randomly recombining
//     surviving coded blocks, most critical level first.
//
// The rest of the implementation (metrics, the fleet's healer) lives in
// internal packages that the cmd/ tools wire up. Everything is
// deterministic given explicit *rand.Rand seeds.
package prlc

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/chord"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/feasibility"
	"repro/internal/geom"
	"repro/internal/gpsr"
	"repro/internal/predist"
	"repro/internal/repair"
	"repro/internal/store"
	"repro/internal/trace"
)

// Typed errors. Every sentinel works with errors.Is/errors.As, so
// callers branch on failure modes instead of matching message strings.
var (
	// ErrDisconnected reports that NewSensorNetwork could not sample a
	// connected deployment; increase the radio range or node count.
	ErrDisconnected = errors.New("prlc: could not sample a connected deployment")
	// ErrWireFormat reports a malformed CodedBlock wire encoding
	// (CodedBlock.UnmarshalBinary and everything built on it).
	ErrWireFormat = core.ErrWireFormat
	// ErrCorruptFrame reports store-frame corruption caught by CRC32.
	ErrCorruptFrame = store.ErrCorruptFrame
	// ErrStoreUnavailable reports that a block store (or too many of its
	// replicas) could not be reached even after retries.
	ErrStoreUnavailable = store.ErrStoreUnavailable
	// ErrDegenerateInputs reports a recombination sample that spans no
	// information (every coefficient vector is zero).
	ErrDegenerateInputs = core.ErrDegenerateInputs
)

// Coding layer.
type (
	// Levels is the priority structure: N source blocks partitioned into
	// levels of descending importance.
	Levels = core.Levels
	// Scheme selects RLC, SLC or PLC.
	Scheme = core.Scheme
	// PriorityDistribution is the per-level share of coded blocks.
	PriorityDistribution = core.PriorityDistribution
	// CodedBlock is one encoded unit stored in the network.
	CodedBlock = core.CodedBlock
	// Encoder generates coded blocks for a scheme and level structure.
	Encoder = core.Encoder
	// Decoder partially decodes coded blocks in priority order.
	Decoder = core.Decoder
	// EncoderOption customizes an Encoder.
	EncoderOption = core.EncoderOption
)

// Coding schemes.
const (
	// RLC is the all-or-nothing Random Linear Code baseline.
	RLC = core.RLC
	// SLC is the Stacked Linear Code (independent per-level coding).
	SLC = core.SLC
	// PLC is the Progressive Linear Code (prefix coding, progressive
	// decoding).
	PLC = core.PLC
)

// NewLevels constructs a priority structure from per-level block counts
// in descending importance.
func NewLevels(sizes ...int) (*Levels, error) { return core.NewLevels(sizes...) }

// UniformLevels returns n levels of perLevel blocks each.
func UniformLevels(n, perLevel int) (*Levels, error) { return core.UniformLevels(n, perLevel) }

// UniformDistribution returns the uniform priority distribution over n
// levels.
func UniformDistribution(n int) PriorityDistribution { return core.NewUniformDistribution(n) }

// NewEncoder constructs an encoder over the given source payloads (nil
// for coefficient-only experiments).
func NewEncoder(scheme Scheme, levels *Levels, sources [][]byte, opts ...EncoderOption) (*Encoder, error) {
	return core.NewEncoder(scheme, levels, sources, opts...)
}

// NewDecoder constructs a partial decoder.
func NewDecoder(scheme Scheme, levels *Levels, payloadLen int) (*Decoder, error) {
	return core.NewDecoder(scheme, levels, payloadLen)
}

// LogSparsity returns the 3·ln(N) coefficient budget of the sparse-code
// result the protocol relies on.
func LogSparsity(n int) int { return core.LogSparsity(n) }

// Analysis layer.

// AnalysisResult is the analytical decoding performance at one point:
// E(X) plus the per-level survival probabilities Pr(X ≥ k).
type AnalysisResult = analysis.Result

// ExpectedDecodedLevels evaluates the Sec. 3.3 model: the expected number
// of decoded priority levels from m randomly accumulated coded blocks.
func ExpectedDecodedLevels(scheme Scheme, levels *Levels, p PriorityDistribution, m int) (AnalysisResult, error) {
	return analysis.Eval(scheme, levels, p, m)
}

// MinBlocks returns the smallest number of coded blocks from which the
// first k levels decode with probability at least prob (the provisioning
// dual of the decoding curve). maxM bounds the search; 0 means 4N.
func MinBlocks(scheme Scheme, levels *Levels, p PriorityDistribution, k int, prob float64, maxM int) (int, error) {
	return analysis.MinBlocks(scheme, levels, p, k, prob, maxM)
}

// Design layer.
type (
	// DecodingConstraint is one (M, k) requirement: from M coded blocks,
	// expect at least k decoded levels.
	DecodingConstraint = feasibility.Constraint
	// DesignProblem is a full Sec. 3.4 feasibility instance.
	DesignProblem = feasibility.Problem
	// DesignOptions tunes the feasibility search.
	DesignOptions = feasibility.Options
	// DesignSolution is the solver outcome.
	DesignSolution = feasibility.Solution
)

// DesignDistribution searches for a priority distribution satisfying the
// given decoding constraints (and, when alpha > 0, the full-recovery
// constraint Pr(X_{αN} = n) > 1−ε).
func DesignDistribution(prob DesignProblem, opts DesignOptions) (DesignSolution, error) {
	return feasibility.Solve(prob, opts)
}

// Utility extension — the "less stringent priority model" the paper
// defers: per-level utilities replace strict priority, and the
// distribution is chosen to maximize expected utility.
type (
	// Utility assigns a marginal utility to each priority level.
	Utility = feasibility.Utility
	// OptimizeProblem is a utility-maximization design instance.
	OptimizeProblem = feasibility.OptimizeProblem
	// OptimizeSolution is the utility-maximization outcome.
	OptimizeSolution = feasibility.OptimizeSolution
)

// OptimizeDistribution maximizes E[U] = Σ_k u_k·Pr(X ≥ k) over the
// simplex, subject to any constraints attached to the problem.
func OptimizeDistribution(prob OptimizeProblem, opts DesignOptions) (OptimizeSolution, error) {
	return feasibility.Optimize(prob, opts)
}

// ProportionalUtility weights each level by its block count.
func ProportionalUtility(l *Levels) Utility { return feasibility.ProportionalUtility(l) }

// Protocol layer.
type (
	// Graph is a geometric connectivity graph.
	Graph = geom.Graph
	// GeoRouter is a GPSR router over a sensor deployment.
	GeoRouter = gpsr.Router
	// ChordRing is a Chord DHT over a P2P population.
	ChordRing = chord.Ring
	// Transport abstracts the routing substrate for pre-distribution.
	Transport = predist.Transport
	// DeployConfig parameterizes a pre-distribution deployment.
	DeployConfig = predist.Config
	// Deployment is the network-wide state of one pre-distribution run.
	Deployment = predist.Deployment
	// CollectOptions controls a collection run.
	CollectOptions = collect.Options
	// CollectResult summarizes a collection run.
	CollectResult = collect.Result
)

// Measurement-data layer: synthetic sensor fields and the multi-resolution
// prioritization the strict priority model motivates (coarse levels are
// the important ones; every recovered level sharpens the reconstruction).
type (
	// SensorField is a smooth synthetic scalar field over the unit square.
	SensorField = trace.Field
	// ResolutionPyramid is a multi-resolution decomposition of a grid.
	ResolutionPyramid = trace.Pyramid
	// BlockLayout maps pyramid levels onto prioritized source blocks.
	BlockLayout = trace.BlockLayout
)

// NewSensorField samples a random field with the given number of Gaussian
// bumps.
func NewSensorField(rng *rand.Rand, bumps int) (*SensorField, error) {
	return trace.NewField(rng, bumps)
}

// BuildPyramid decomposes a res×res grid (res a power of two) into a
// resolution pyramid whose levels align with coding priority levels.
func BuildPyramid(grid []float64, res int) (*ResolutionPyramid, error) {
	return trace.BuildPyramid(grid, res)
}

// PyramidFromBlocks rebuilds a pyramid from (partially) decoded source
// blocks, returning how many leading levels were recoverable.
func PyramidFromBlocks(blocks [][]byte, layout BlockLayout, res int) (*ResolutionPyramid, int, error) {
	return trace.FromBlocks(blocks, layout, res)
}

// FieldRMSE is the root-mean-square error between two grids.
func FieldRMSE(a, b []float64) (float64, error) { return trace.RMSE(a, b) }

// Churn experiment.
type (
	// ChurnConfig parameterizes a persistence-under-churn timeline run.
	ChurnConfig = exper.ChurnConfig
	// ChurnPoint is one timeline sample of the churn experiment.
	ChurnPoint = exper.ChurnPoint
)

// PersistenceUnderChurn pre-distributes data on a sensor field at t = 0,
// lets nodes die at exponential lifetimes, and samples the decodable
// priority levels at the configured times.
func PersistenceUnderChurn(cfg ChurnConfig) ([]ChurnPoint, error) {
	return exper.PersistenceUnderChurn(cfg)
}

// NewSensorNetwork builds a connected unit-disk sensor deployment of the
// given size and radio range (re-sampling positions until connected) and
// returns its GPSR router and graph.
func NewSensorNetwork(rng *rand.Rand, nodes int, radius float64) (*GeoRouter, *Graph, error) {
	for attempt := 0; ; attempt++ {
		pos := geom.RandomPoints(rng, nodes)
		g, err := geom.NewUnitDiskGraph(pos, radius)
		if err != nil {
			return nil, nil, err
		}
		if g.Connected() {
			r, err := gpsr.New(g)
			if err != nil {
				return nil, nil, err
			}
			return r, g, nil
		}
		if attempt >= 200 {
			return nil, nil, fmt.Errorf("%w (%d nodes, radius %g)", ErrDisconnected, nodes, radius)
		}
	}
}

// NewChordOverlay builds a Chord ring of n nodes with random IDs.
func NewChordOverlay(rng *rand.Rand, n int) (*ChordRing, error) {
	return chord.NewRandom(rng, n)
}

// NewGeoTransport adapts a GPSR router for pre-distribution.
func NewGeoTransport(r *GeoRouter, nodes int) (Transport, error) {
	return predist.NewGeoTransport(r, nodes)
}

// NewDHTTransport adapts a Chord ring for pre-distribution.
func NewDHTTransport(r *ChordRing) (Transport, error) {
	return predist.NewDHTTransport(r)
}

// NewDeployment derives the seeded cache locations for a deployment.
func NewDeployment(cfg DeployConfig) (*Deployment, error) { return predist.NewDeployment(cfg) }

// Collect pulls coded blocks into dec in random order, stopping when the
// options' target is met; a block dec refuses is skipped and counted.
func Collect(rng *rand.Rand, dec *Decoder, blocks []*CodedBlock, opts CollectOptions) (CollectResult, error) {
	return collect.Run(collect.Shuffle(rng, blocks), dec, opts)
}

// Store layer: the networked priority block store of internal/store — a
// TCP daemon holding coded blocks, a pooled retrying client, and the
// placement front end over a fleet of them. Every coded block belongs to
// an ObjectID (ZeroObject is the key-less namespace), and a PlacedStore
// resolves each object's replica set by consistent hashing — the ID's
// successor list of alive nodes on a chord ring — with a replication
// factor that decreases with priority level, so the critical prefix
// survives more node losses. The same address list and membership
// sequence yields the same assignment in every run.
type (
	// StoreServer is a TCP block-store daemon.
	StoreServer = store.Server
	// StoreServerConfig parameterizes a StoreServer.
	StoreServerConfig = store.ServerConfig
	// StoreClient talks to one daemon with pooling and retries; every
	// read names one object, and all operations take a context.Context.
	StoreClient = store.Client
	// StoreClientConfig parameterizes a StoreClient.
	StoreClientConfig = store.ClientConfig
	// ObjectID names one logical data object — the unit differentiated
	// persistence is defined over and the unit placement hashes.
	ObjectID = core.ObjectID
	// PlacedStore is the consistent-hashing front end: per-object shards
	// over a dynamic fleet.
	PlacedStore = store.Placed
	// PlacedStoreConfig parameterizes a PlacedStore.
	PlacedStoreConfig = store.PlacedConfig
)

// ZeroObject is the key-less object every v1/v3 wire frame belongs to.
const ZeroObject = core.ZeroObject

// NewStoreServer starts a block-store daemon on cfg.Addr (empty for an
// ephemeral loopback port). Shut it down with its Shutdown method.
func NewStoreServer(cfg StoreServerConfig) (*StoreServer, error) { return store.NewServer(cfg) }

// NewStoreClient returns a client for one daemon; connections are dialed
// lazily and pooled.
func NewStoreClient(cfg StoreClientConfig) (*StoreClient, error) { return store.NewClient(cfg) }

// NewPlacedStore builds the placement layer over per-node clients for a
// code with the given number of levels.
func NewPlacedStore(clients []*StoreClient, levels int, cfg PlacedStoreConfig) (*PlacedStore, error) {
	return store.NewPlaced(clients, levels, cfg)
}

// Repair layer: decode-free maintenance of a replicated deployment.
// Redundancy lost to churn is regenerated by randomly recombining
// surviving coded blocks (the regeneration primitive of Dimakis et al.,
// "Network Coding for Distributed Storage Systems") — no source block
// is ever reconstructed on the repair path.
type (
	// RepairConfig parameterizes a RepairDaemon (code, per-level
	// targets, per-round block budget, seed).
	RepairConfig = repair.Config
	// RepairDaemon runs one object's audit+recombine+place round.
	RepairDaemon = repair.Daemon
)

// Recombine produces a fresh coded block as a random GF(2^8) linear
// combination of compatible coded blocks — the decode-free repair
// primitive. SLC inputs must share a level; PLC output takes the
// maximum input level, its support the union of the input spans.
// All-zero samples fail with ErrDegenerateInputs.
func Recombine(rng *rand.Rand, scheme Scheme, levels *Levels, blocks []*CodedBlock) (*CodedBlock, error) {
	return core.Recombine(rng, scheme, levels, blocks)
}

// NewObjectRepairDaemon validates the configuration and returns a
// repair daemon scoped to one object on a placed fleet (ZeroObject for
// key-less data); RunOnce drives one audit+repair round. Each round
// re-resolves the object's shard, so repair follows the ring through
// churn and regenerated blocks land on the current owners.
func NewObjectRepairDaemon(p *PlacedStore, obj ObjectID, cfg RepairConfig) (*RepairDaemon, error) {
	return repair.NewObject(p, obj, cfg)
}
