// Package gossip implements random-walk dissemination — the substrate the
// pre-distribution idea falls back to when no geometric routing is
// available (no GPS, no DHT), following the decentralized-erasure-code
// model of Dimakis et al. that Sec. 4 builds on: every node is a cache
// holding one coded block, and each source block performs a few random
// walks over the connectivity graph; wherever a walk terminates, the
// block is folded in with c ← c + βx.
//
// Plain random walks sample nodes proportionally to their degree, which
// would skew the coded-block distribution on irregular topologies. The
// walker therefore applies the Metropolis–Hastings correction — a move
// from u to a uniformly chosen neighbor v is accepted with probability
// min(1, deg(u)/deg(v)) — making the stationary distribution uniform over
// the alive nodes, the same "random cache" model the routing-based
// protocol realizes with seeded locations.
//
// Priority levels work exactly as in predist: each node is assigned a
// level part from a common random seed (so every sender derives the same
// assignment without coordination), and a level-ℓ source block is only
// folded into caches of an eligible part — part ℓ under SLC, parts ≥ ℓ
// under PLC. A walk that terminates on an ineligible node simply keeps
// walking, up to its step budget.
package gossip

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/gf256"
)

// Walker performs Metropolis–Hastings random walks over a geometric graph
// with dynamic node liveness.
type Walker struct {
	g     *geom.Graph
	alive []bool
	steps int
}

// NewWalker builds a walker with the given mixing length per walk
// (0 picks 4·|V|, conservative for connected unit-disk deployments).
func NewWalker(g *geom.Graph, steps int) (*Walker, error) {
	if g == nil {
		return nil, fmt.Errorf("gossip: nil graph")
	}
	if steps < 0 {
		return nil, fmt.Errorf("gossip: negative walk length %d", steps)
	}
	if steps == 0 {
		steps = 4 * g.Len()
	}
	w := &Walker{g: g, alive: make([]bool, g.Len()), steps: steps}
	for i := range w.alive {
		w.alive[i] = true
	}
	return w, nil
}

// Steps returns the configured walk length.
func (w *Walker) Steps() int { return w.steps }

// NumNodes returns the node population size.
func (w *Walker) NumNodes() int { return w.g.Len() }

// SetAlive updates node liveness; the slice must have one entry per node.
func (w *Walker) SetAlive(alive []bool) error {
	if len(alive) != w.g.Len() {
		return fmt.Errorf("gossip: alive vector has %d entries, want %d", len(alive), w.g.Len())
	}
	copy(w.alive, alive)
	return nil
}

// Alive reports whether node i is alive.
func (w *Walker) Alive(i int) bool { return i >= 0 && i < len(w.alive) && w.alive[i] }

func (w *Walker) aliveDegree(u int) int {
	d := 0
	for _, v := range w.g.Neighbors(u) {
		if w.alive[v] {
			d++
		}
	}
	return d
}

// Walk runs one Metropolis–Hastings walk of the configured length from
// origin, optionally continuing past the budget until accept(node) holds
// (nil accepts everything). It returns the terminal node and the number
// of transmissions. The walk gives up with an error if no eligible node
// is reached within 4x the budget.
func (w *Walker) Walk(rng *rand.Rand, origin int, accept func(int) bool) (node, hops int, err error) {
	if origin < 0 || origin >= w.g.Len() {
		return 0, 0, fmt.Errorf("gossip: origin %d out of range", origin)
	}
	if !w.alive[origin] {
		return 0, 0, fmt.Errorf("gossip: origin %d is not alive", origin)
	}
	cur := origin
	degCur := w.aliveDegree(cur)
	limit := 4 * w.steps
	for step := 0; step < limit; step++ {
		if step >= w.steps && (accept == nil || accept(cur)) {
			return cur, hops, nil
		}
		if degCur == 0 {
			break // isolated: the walk is stuck here
		}
		k := rng.Intn(degCur)
		next := -1
		for _, v := range w.g.Neighbors(cur) {
			if !w.alive[v] {
				continue
			}
			if k == 0 {
				next = v
				break
			}
			k--
		}
		degNext := w.aliveDegree(next)
		if degNext > degCur && float64(degCur)/float64(degNext) < rng.Float64() {
			continue // Metropolis–Hastings rejection: stay put
		}
		cur = next
		degCur = degNext
		hops++
	}
	if accept == nil || accept(cur) {
		return cur, hops, nil
	}
	return 0, 0, fmt.Errorf("gossip: no eligible node within %d steps from %d", limit, origin)
}

// Config parameterizes a gossip deployment.
type Config struct {
	Scheme core.Scheme
	Levels *core.Levels
	// Dist sizes the per-node part assignment.
	Dist core.PriorityDistribution
	// Seed is the common random seed for the part assignment.
	Seed int64
	// Fanout is the number of walks (cache copies) per source block;
	// 0 uses 3·ln(N) per the decentralized-erasure-code result.
	Fanout int
	// PayloadLen is the source-block payload size (0 for coefficient-only
	// experiments).
	PayloadLen int
}

// Deployment is cache-per-node gossip state: node i holds one coded block.
type Deployment struct {
	cfg     Config
	w       *Walker
	partOf  []int // per-node level part, derived from the common seed
	coeff   [][]byte
	payload [][]byte
	stats   Stats
}

// Stats accumulates dissemination cost.
type Stats struct {
	// Walks is the number of dissemination walks performed.
	Walks int
	// Hops is the total transmissions across all walks.
	Hops int
}

// NewDeployment assigns every node a level part from the common seed and
// prepares empty caches.
func NewDeployment(w *Walker, cfg Config) (*Deployment, error) {
	if w == nil {
		return nil, fmt.Errorf("gossip: nil walker")
	}
	if cfg.Levels == nil {
		return nil, fmt.Errorf("gossip: nil levels")
	}
	if !cfg.Scheme.Valid() {
		return nil, fmt.Errorf("gossip: invalid scheme %v", cfg.Scheme)
	}
	if err := cfg.Dist.Validate(cfg.Levels); err != nil {
		return nil, err
	}
	if cfg.Fanout < 0 {
		return nil, fmt.Errorf("gossip: negative fanout %d", cfg.Fanout)
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = core.LogSparsity(cfg.Levels.Total())
	}
	if cfg.PayloadLen < 0 {
		return nil, fmt.Errorf("gossip: negative payload length %d", cfg.PayloadLen)
	}
	n := w.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("gossip: empty graph")
	}
	// Common-seed part assignment: shuffle node indices and slice into
	// parts sized by the largest-remainder apportionment of Dist.
	sizes, err := dist.Apportion(cfg.Dist, n)
	if err != nil {
		return nil, fmt.Errorf("gossip: %w", err)
	}
	d := &Deployment{
		cfg:     cfg,
		w:       w,
		partOf:  make([]int, n),
		coeff:   make([][]byte, n),
		payload: make([][]byte, n),
	}
	order := rand.New(rand.NewSource(cfg.Seed)).Perm(n)
	part, used := 0, 0
	for _, node := range order {
		for part < len(sizes)-1 && used >= sizes[part] {
			part++
			used = 0
		}
		d.partOf[node] = part
		used++
	}
	for i := 0; i < n; i++ {
		d.coeff[i] = make([]byte, cfg.Levels.Total())
		d.payload[i] = make([]byte, cfg.PayloadLen)
	}
	return d, nil
}

// PartOf returns the level part assigned to node i.
func (d *Deployment) PartOf(i int) int { return d.partOf[i] }

// Stats returns the accumulated dissemination cost.
func (d *Deployment) Stats() Stats { return d.stats }

// eligible reports whether a block of the given level may be folded into
// node i's cache under the deployment's scheme.
func (d *Deployment) eligible(node, level int) bool {
	switch d.cfg.Scheme {
	case core.SLC:
		return d.partOf[node] == level
	case core.PLC:
		return d.partOf[node] >= level
	default: // RLC
		return true
	}
}

// Disseminate sends source block blockIdx from origin on Fanout random
// walks, folding it into each eligible terminal cache.
func (d *Deployment) Disseminate(rng *rand.Rand, origin, blockIdx int, payload []byte) error {
	if len(payload) != d.cfg.PayloadLen {
		return fmt.Errorf("gossip: payload length %d, want %d", len(payload), d.cfg.PayloadLen)
	}
	level, err := d.cfg.Levels.LevelOf(blockIdx)
	if err != nil {
		return err
	}
	for walk := 0; walk < d.cfg.Fanout; walk++ {
		node, hops, err := d.w.Walk(rng, origin, func(n int) bool { return d.eligible(n, level) })
		if err != nil {
			return fmt.Errorf("gossip: block %d walk %d: %w", blockIdx, walk, err)
		}
		d.stats.Walks++
		d.stats.Hops += hops
		beta := byte(1 + rng.Intn(255))
		d.coeff[node][blockIdx] ^= beta
		if d.cfg.PayloadLen > 0 {
			gf256.AddMulSlice(d.payload[node], payload, beta)
		}
	}
	return nil
}

// CodedBlocks returns the coded block of every node passing the alive
// filter (nil = all) that received at least one source block.
func (d *Deployment) CodedBlocks(alive func(node int) bool) []*core.CodedBlock {
	out := make([]*core.CodedBlock, 0, len(d.coeff))
	for i := range d.coeff {
		if alive != nil && !alive(i) {
			continue
		}
		if gf256.IsZero(d.coeff[i]) {
			continue
		}
		out = append(out, &core.CodedBlock{
			Level:   d.partOf[i],
			Coeff:   append([]byte(nil), d.coeff[i]...),
			Payload: append([]byte(nil), d.payload[i]...),
		})
	}
	return out
}
