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
//     levels 1..k, decoding progressively via incremental Gauss–Jordan
//     elimination and strictly dominating SLC.
//
// The package exposes seven layers:
//
//   - Coding: Levels, Encoder, Decoder, CodedBlock — encode source blocks
//     into coded blocks and partially decode in priority order.
//   - Analysis: ExpectedDecodedLevels and DecodingCurve — the Sec. 3.3
//     numerical model of decoding performance.
//   - Design: DesignDistribution — the Sec. 3.4 feasibility solver that
//     turns decoding constraints into a priority distribution.
//   - Protocol: Deployment plus the GPSR and Chord transports — the
//     Sec. 4 pre-distribution protocol with decentralized encoding
//     (c ← c + βx), O(ln N) fanout, and two-choices load balancing.
//   - Store: StoreServer and StoreClient — a real-sockets block store
//     daemon and its pooled, retrying client.
//   - Placement: ObjectID, PlacedStore and GossipMonitor — the one
//     front end of a fleet: an object-keyed namespace whose per-object
//     replica sets are resolved by consistent hashing over a ring, with
//     membership driven by a failure detector, so many objects share
//     one dynamic fleet. Within a replica set (a ReplicatedStore) the
//     replication factor decreases with priority level, so the critical
//     prefix survives more node losses. A flat fleet is the ring with
//     Replication = the node count; key-less data is ZeroObject on it.
//   - Repair: Recombine, AuditStore and RepairDaemon — decode-free
//     regeneration of redundancy lost to churn, by randomly recombining
//     surviving coded blocks, most critical level first.
//
// Everything is deterministic given explicit *rand.Rand seeds.
package prlc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"

	"repro/internal/analysis"
	"repro/internal/chord"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/feasibility"
	"repro/internal/geom"
	"repro/internal/gossip"
	"repro/internal/gpsr"
	"repro/internal/metrics"
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
	// EncoderOption customizes an Encoder (see WithSparsity).
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

// ParseScheme converts "RLC", "SLC" or "PLC" to a Scheme.
func ParseScheme(name string) (Scheme, error) { return core.ParseScheme(name) }

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

// Stream couples a decoder with in-order payload delivery to an
// io.Writer — the streaming face of progressive decoding.
type Stream = core.Stream

// NewStream constructs a streaming decoder writing decoded prefix
// payloads to sink as coded blocks arrive.
func NewStream(scheme Scheme, levels *Levels, payloadLen int, sink io.Writer) (*Stream, error) {
	return core.NewStream(scheme, levels, payloadLen, sink)
}

// WithSparsity bounds each coded block to d nonzero coefficients.
func WithSparsity(d int) EncoderOption { return core.WithSparsity(d) }

// WithBand draws each coded block's coefficients as a contiguous band of
// width w inside the block's support (the perpetual-codes generator).
func WithBand(w int) EncoderOption { return core.WithBand(w) }

// LogSparsity returns the 3·ln(N) coefficient budget of the sparse-code
// result the protocol relies on.
func LogSparsity(n int) int { return core.LogSparsity(n) }

// Sparse and chunked coding layer.
type (
	// SparseCoeff is the sparse coefficient representation coded blocks
	// carry end-to-end (index/value pairs, canonical form).
	SparseCoeff = core.SparseCoeff
	// Coding selects the coefficient generator (dense, sparse, band,
	// chunked, or auto by generation size).
	Coding = core.Coding
	// ChunkLayout is the overlapping chunk cover of a large object.
	ChunkLayout = core.ChunkLayout
	// ChunkedEncoder codes one chunk at a time (expander chunked codes).
	ChunkedEncoder = core.ChunkedEncoder
	// ChunkedDecoder decodes chunk-coded blocks through one global sparse
	// elimination, so overlap columns rescue starved chunks for free.
	ChunkedDecoder = core.ChunkedDecoder
)

// Coding selectors.
const (
	CodingAuto    = core.CodingAuto
	CodingDense   = core.CodingDense
	CodingSparse  = core.CodingSparse
	CodingBand    = core.CodingBand
	CodingChunked = core.CodingChunked
)

// ParseCoding parses a -coding flag value ("auto", "dense", "sparse",
// "band" or "chunked").
func ParseCoding(s string) (Coding, error) { return core.ParseCoding(s) }

// AutoCoding resolves CodingAuto for a generation of n source blocks.
func AutoCoding(n int) Coding { return core.AutoCoding(n) }

// NewChunkLayout builds an overlapping chunk cover of total source
// blocks: uniform chunks of the given size, consecutive chunks sharing
// overlap columns.
func NewChunkLayout(total, size, overlap int) (*ChunkLayout, error) {
	return core.NewChunkLayout(total, size, overlap)
}

// NewChunkedEncoder builds an expander-chunked encoder over the layout.
func NewChunkedEncoder(layout *ChunkLayout, sources [][]byte) (*ChunkedEncoder, error) {
	return core.NewChunkedEncoder(layout, sources)
}

// NewChunkedDecoder builds the matching global sparse-elimination decoder.
func NewChunkedDecoder(layout *ChunkLayout, payloadLen int) (*ChunkedDecoder, error) {
	return core.NewChunkedDecoder(layout, payloadLen)
}

// Analysis layer.

// AnalysisResult is the analytical decoding performance at one point:
// E(X) plus the per-level survival probabilities Pr(X ≥ k).
type AnalysisResult = analysis.Result

// ExpectedDecodedLevels evaluates the Sec. 3.3 model: the expected number
// of decoded priority levels from m randomly accumulated coded blocks.
func ExpectedDecodedLevels(scheme Scheme, levels *Levels, p PriorityDistribution, m int) (AnalysisResult, error) {
	return analysis.Eval(scheme, levels, p, m)
}

// DecodingCurve evaluates the model over a sweep of block counts.
func DecodingCurve(scheme Scheme, levels *Levels, p PriorityDistribution, ms []int) ([]AnalysisResult, error) {
	return analysis.Curve(scheme, levels, p, ms)
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

// GeometricUtility returns u_k = base^k — strict priority as base → 0,
// volume maximization at base = 1.
func GeometricUtility(n int, base float64) (Utility, error) {
	return feasibility.GeometricUtility(n, base)
}

// ProportionalUtility weights each level by its block count.
func ProportionalUtility(l *Levels) Utility { return feasibility.ProportionalUtility(l) }

// Protocol layer.
type (
	// Point is a location in the unit square.
	Point = geom.Point
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
	// DeployStats is the dissemination bandwidth cost.
	DeployStats = predist.Stats
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

// Collect pulls coded blocks in random order into a fresh decoder,
// stopping when the options' target is met.
func Collect(rng *rand.Rand, scheme Scheme, levels *Levels, blocks []*CodedBlock, opts CollectOptions) (CollectResult, *Decoder, error) {
	return collect.Run(rng, scheme, levels, blocks, opts)
}

// Store layer: the networked priority block store of internal/store — a
// TCP daemon holding coded blocks, a pooled retrying client, and a
// replicated store whose replication factor decreases with priority
// level, so the critical prefix survives more node losses.
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
	// StoreRetryPolicy tunes client backoff (exponential with jitter).
	StoreRetryPolicy = store.RetryPolicy
	// StoreStats is a daemon inventory snapshot.
	StoreStats = store.Stats
	// StoreDialer abstracts connection establishment (fault injection).
	StoreDialer = store.Dialer
	// ReplicatedStore maps priority level to replication factor over a
	// set of daemons: one object's replica set, as PlacedStore.Shard
	// returns it and AuditStore takes it.
	ReplicatedStore = store.Replicated
	// FaultConfig parameterizes a fault-injecting dialer.
	FaultConfig = store.FaultConfig
	// FaultDialer injects seedable dial failures, frame corruption,
	// delays and partitions — the robustness tests' network.
	FaultDialer = store.FaultDialer
)

// NewStoreServer starts a block-store daemon on cfg.Addr (empty for an
// ephemeral loopback port). Shut it down with its Shutdown method.
func NewStoreServer(cfg StoreServerConfig) (*StoreServer, error) { return store.NewServer(cfg) }

// NewStoreClient returns a client for one daemon; connections are dialed
// lazily and pooled.
func NewStoreClient(cfg StoreClientConfig) (*StoreClient, error) { return store.NewClient(cfg) }

// NewFaultDialer wraps a dialer (nil for the network) with seedable
// fault injection for robustness experiments.
func NewFaultDialer(base StoreDialer, cfg FaultConfig) *FaultDialer {
	return store.NewFaultDialer(base, cfg)
}

// Placement layer: the object-keyed namespace over the store fleet.
// Every coded block belongs to an ObjectID (the zero object is the
// key-less legacy namespace v1/v3 wire frames decode into), and a
// PlacedStore resolves each object's replica set by consistent hashing
// — the ID's successor list of R alive nodes on a chord ring — instead
// of one static replica list for everything. A GossipMonitor probes the
// fleet and reports liveness transitions; feeding them to SetAlive
// keeps placement tracking membership, deterministically: the same
// address list and membership sequence yields the same assignment in
// every run.
type (
	// ObjectID names one logical data object — the unit differentiated
	// persistence is defined over and the unit placement hashes.
	ObjectID = core.ObjectID
	// ObjectStats is one object's slice of a StoreStats snapshot.
	ObjectStats = store.ObjectStats
	// PlacedStore is the consistent-hashing front end: per-object shards
	// over a dynamic fleet, each shard a ReplicatedStore.
	PlacedStore = store.Placed
	// PlacedStoreConfig parameterizes a PlacedStore.
	PlacedStoreConfig = store.PlacedConfig
	// RingMember is one node's placement-ring entry (address, ring ID,
	// liveness).
	RingMember = store.RingMember
	// GossipMonitor is the seeded round-robin failure detector
	// (Alive → Suspect → Dead on consecutive probe misses).
	GossipMonitor = gossip.Monitor
	// GossipMonitorConfig parameterizes a GossipMonitor.
	GossipMonitorConfig = gossip.MonitorConfig
	// GossipEvent is one liveness transition.
	GossipEvent = gossip.Event
	// GossipProber abstracts the probe a GossipMonitor sends; a
	// PlacedStore satisfies it over the store wire path.
	GossipProber = gossip.Prober
)

// The reserved object values: the key-less legacy object every v1/v3
// wire frame belongs to, and the all-objects value that no block carries
// and every store entry point refuses.
const (
	ZeroObject = core.ZeroObject
	AllObjects = core.AllObjects
)

// NamedObject derives an ObjectID from a human-chosen name (FNV-64a,
// remapped away from the reserved values).
func NamedObject(name string) ObjectID { return core.NamedObject(name) }

// ParseObjectID resolves an object spec: canonical "obj-<16 hex>" parses
// exactly, anything else hashes as a name, empty is ZeroObject.
func ParseObjectID(s string) (ObjectID, error) { return core.ParseObjectID(s) }

// StoreNodeID maps a node address onto the placement ring (FNV-64a) —
// exported so tools can predict ownership without a live fleet.
func StoreNodeID(addr string) uint64 { return store.NodeID(addr) }

// NewPlacedStore builds the placement layer over per-node clients for a
// code with the given number of levels.
func NewPlacedStore(clients []*StoreClient, levels int, cfg PlacedStoreConfig) (*PlacedStore, error) {
	return store.NewPlaced(clients, levels, cfg)
}

// NewGossipMonitor builds a failure detector over the fleet's addresses;
// Tick probes the next node round-robin, Run loops it.
func NewGossipMonitor(addrs []string, p GossipProber, cfg GossipMonitorConfig) (*GossipMonitor, error) {
	return gossip.NewMonitor(addrs, p, cfg)
}

// Repair layer: decode-free maintenance of a replicated deployment.
// Redundancy lost to churn is regenerated by randomly recombining
// surviving coded blocks (the regeneration primitive of Dimakis et al.,
// "Network Coding for Distributed Storage Systems") — no source block
// is ever reconstructed on the repair path.
type (
	// RepairConfig parameterizes a RepairDaemon (interval, backoff,
	// jitter, per-round block budget, sample size, seed).
	RepairConfig = repair.Config
	// RepairDaemon is the background audit+recombine+place loop.
	RepairDaemon = repair.Daemon
	// RepairReport summarizes one repair round.
	RepairReport = repair.Report
	// StoreAuditConfig defines the provisioning targets an audit
	// compares the fleet against.
	StoreAuditConfig = repair.AuditConfig
	// StoreAudit is one fleet inventory scan: per-level copy counts vs.
	// targets, most-critical-level-first.
	StoreAudit = repair.Audit
	// StoreLevelReport is one level's audit line.
	StoreLevelReport = repair.LevelReport
)

// Recombine produces a fresh coded block as a random GF(2^8) linear
// combination of compatible coded blocks — the decode-free repair
// primitive. SLC inputs must share a level; PLC output takes the
// maximum input level, its support the union of the input spans.
func Recombine(rng *rand.Rand, scheme Scheme, levels *Levels, blocks []*CodedBlock) (*CodedBlock, error) {
	return core.Recombine(rng, scheme, levels, blocks)
}

// RecombineRanked is Recombine plus the GF(2^8) rank of the input
// sample — how many linearly independent fresh blocks it can yield.
// All-zero samples fail with ErrDegenerateInputs.
func RecombineRanked(rng *rand.Rand, scheme Scheme, levels *Levels, blocks []*CodedBlock) (*CodedBlock, int, error) {
	return core.RecombineRanked(rng, scheme, levels, blocks)
}

// AuditStore scans every replica's per-level inventory and compares it
// against the provisioning targets, returning the deficit report the
// repair loop acts on.
func AuditStore(ctx context.Context, r *ReplicatedStore, cfg StoreAuditConfig) (*StoreAudit, error) {
	return repair.AuditFleet(ctx, r, cfg)
}

// NewObjectRepairDaemon validates the configuration and returns a
// stopped repair daemon scoped to one object on a placed fleet
// (ZeroObject for key-less data); Start launches the background loop,
// RunOnce drives a single audit+repair round synchronously. Each round
// re-resolves the object's shard, so repair follows the ring through
// churn and regenerated blocks land on the current owners.
func NewObjectRepairDaemon(p *PlacedStore, obj ObjectID, cfg RepairConfig) (*RepairDaemon, error) {
	return repair.NewObject(p, obj, cfg)
}

// Observability layer: a dependency-free metrics registry threaded
// through every hot path. Pass one registry via the Metrics field of
// StoreServerConfig, StoreClientConfig, PlacedStoreConfig and
// RepairConfig (and SetMetrics on Encoder/Decoder) to aggregate a whole
// process into one scrapeable view; a nil registry is a no-op.
type (
	// MetricsRegistry holds atomic counters, gauges and log-linear
	// latency/size histograms, exposable as Prometheus text or JSON.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of every registered metric.
	MetricsSnapshot = metrics.Snapshot
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// MetricsHandler serves r on /metrics (Prometheus text), /metrics.json
// and /debug/pprof/ — what `prlcd serve -metrics <addr>` listens with.
func MetricsHandler(r *MetricsRegistry) http.Handler { return metrics.Handler(r) }
