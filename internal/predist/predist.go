// Package predist implements the Sec. 4 pre-distribution protocol and
// distributed encoding algorithm. All nodes share a common random seed
// from which they derive the same M cache locations in the geometric
// space. Each cache location stores exactly one coded block. The M
// locations are divided into n parts sized by the priority distribution
// (part i holds the level-i coded blocks); a source block of level i is
// routed only to the locations that must encode it — part i under SLC,
// parts i..n under PLC (Fig. 3) — and the node in charge of each location
// folds it into the location's coded block with c ← c + βx for a fresh
// random coefficient β.
//
// Options reproduce the paper's two protocol refinements: a per-source
// fanout of O(ln N) random locations instead of the full destination
// subset (the Dimakis et al. sparse-code result that makes dissemination
// bandwidth-efficient), and "power of two choices" placement that keeps
// the maximum per-node cache load at Θ(ln ln M) (Byers et al.).
package predist

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/gf256"
)

// Transport abstracts the routing substrate (GPSR over a sensor field,
// Chord over a P2P ring): it can resolve the node in charge of a point
// and route to it from an origin node, reporting the hop count.
type Transport interface {
	// NumNodes returns the node population size.
	NumNodes() int
	// Home returns the node currently in charge of point p.
	Home(p geom.Point) (int, error)
	// Route delivers a message from origin to the home node of p,
	// returning that node and the number of hops traversed.
	Route(origin int, p geom.Point) (node, hops int, err error)
}

// Config parameterizes a deployment.
type Config struct {
	Scheme core.Scheme
	Levels *core.Levels
	// Dist is the priority distribution sizing the location parts.
	Dist core.PriorityDistribution
	// M is the number of cache locations (coded blocks) in the network;
	// it must not exceed total network storage (W·d in the paper).
	M int
	// Seed is the common random seed every node uses to derive the
	// locations.
	Seed int64
	// Fanout, when positive, routes each source block to only this many
	// randomly chosen locations of its destination subset instead of all
	// of them — the O(ln N) dissemination of Sec. 4.
	Fanout int
	// TwoChoices enables power-of-two-choices placement: each location
	// slot derives two candidate points and is assigned to the less
	// loaded of their two home nodes.
	TwoChoices bool
	// PayloadLen is the source-block payload size in bytes (0 allowed for
	// coefficient-only experiments).
	PayloadLen int
}

func (c Config) validate() error {
	if c.Levels == nil {
		return fmt.Errorf("predist: nil levels")
	}
	if !c.Scheme.Valid() {
		return fmt.Errorf("predist: invalid scheme %v", c.Scheme)
	}
	if err := c.Dist.Validate(c.Levels); err != nil {
		return err
	}
	if c.M <= 0 {
		return fmt.Errorf("predist: M = %d cache locations, want > 0", c.M)
	}
	if c.Fanout < 0 {
		return fmt.Errorf("predist: negative fanout %d", c.Fanout)
	}
	if c.PayloadLen < 0 {
		return fmt.Errorf("predist: negative payload length %d", c.PayloadLen)
	}
	return nil
}

// Stats accumulates the protocol's bandwidth cost.
type Stats struct {
	// Messages is the number of source-block deliveries routed.
	Messages int
	// Hops is the total hop count across all deliveries.
	Hops int
	// Misroutes counts deliveries that reached a node other than the
	// location's resolved owner (possible only if the topology changed
	// mid-dissemination).
	Misroutes int
}

// Deployment is the network-wide state of one pre-distribution run.
type Deployment struct {
	cfg       Config
	locations []geom.Point   // chosen point per location slot
	altPoints []geom.Point   // second candidate per slot (TwoChoices)
	partOf    []int          // level part of each location slot
	owner     []int          // resolved owner node per slot; -1 before resolution
	coeff     []map[int]byte // accumulated coding coefficients per slot, sparse
	payload   [][]byte       // accumulated coded payload per slot
	stats     Stats
	resolved  bool
}

// NewDeployment derives the seeded locations and their level parts.
func NewDeployment(cfg Config) (*Deployment, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Levels.Count()
	d := &Deployment{
		cfg:     cfg,
		partOf:  make([]int, cfg.M),
		owner:   make([]int, cfg.M),
		coeff:   make([]map[int]byte, cfg.M),
		payload: make([][]byte, cfg.M),
	}
	pts := geom.SeededLocations(cfg.Seed, 2*cfg.M)
	d.locations = pts[:cfg.M]
	d.altPoints = pts[cfg.M:]
	for i := range d.owner {
		d.owner[i] = -1
		// Sparse accumulation: with the O(ln N) fanout a slot sees only a
		// handful of source blocks, so per-slot state is O(nnz) instead of
		// the dense O(N) vector this used to allocate (M·N bytes network
		// wide — the memory the sparse representation exists to avoid).
		d.coeff[i] = make(map[int]byte)
		d.payload[i] = make([]byte, cfg.PayloadLen)
	}
	// Largest-remainder apportionment of the M slots over the n parts so
	// part sizes match M·p_i as closely as integers allow.
	sizes := apportion(cfg.M, cfg.Dist)
	part := 0
	used := 0
	for i := 0; i < cfg.M; i++ {
		for part < n-1 && used >= sizes[part] {
			part++
			used = 0
		}
		d.partOf[i] = part
		used++
	}
	return d, nil
}

// apportion splits m slots over the distribution by largest remainder.
func apportion(m int, p []float64) []int {
	n := len(p)
	sizes := make([]int, n)
	rem := make([]float64, n)
	total := 0
	for i, pi := range p {
		exact := pi * float64(m)
		sizes[i] = int(exact)
		rem[i] = exact - float64(sizes[i])
		total += sizes[i]
	}
	for total < m {
		best := 0
		for i := 1; i < n; i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		sizes[best]++
		rem[best] = -1
		total++
	}
	return sizes
}

// M returns the number of cache locations.
func (d *Deployment) M() int { return d.cfg.M }

// Location returns the point of slot i (the chosen candidate after
// two-choices resolution).
func (d *Deployment) Location(i int) geom.Point { return d.locations[i] }

// PartOf returns the level part of slot i.
func (d *Deployment) PartOf(i int) int { return d.partOf[i] }

// PartSizes returns the number of slots in each level part.
func (d *Deployment) PartSizes() []int {
	sizes := make([]int, d.cfg.Levels.Count())
	for _, p := range d.partOf {
		sizes[p]++
	}
	return sizes
}

// Owner returns the node resolved to hold slot i, or -1 before
// ResolveOwners.
func (d *Deployment) Owner(i int) int { return d.owner[i] }

// Stats returns the accumulated dissemination cost.
func (d *Deployment) Stats() Stats { return d.stats }

// ResolveOwners assigns every location slot to its home node. With
// TwoChoices each slot compares the loads of its two candidate homes and
// picks the lighter one, processing slots in seed order so every node
// reaches the same assignment independently.
func (d *Deployment) ResolveOwners(tr Transport) error {
	load := make(map[int]int, tr.NumNodes())
	for i := range d.locations {
		home, err := tr.Home(d.locations[i])
		if err != nil {
			return fmt.Errorf("predist: resolve slot %d: %w", i, err)
		}
		if d.cfg.TwoChoices {
			alt, err := tr.Home(d.altPoints[i])
			if err != nil {
				return fmt.Errorf("predist: resolve slot %d alternate: %w", i, err)
			}
			if load[alt] < load[home] {
				home = alt
				d.locations[i] = d.altPoints[i] // future routing targets the alternate
			}
		}
		d.owner[i] = home
		load[home]++
	}
	d.resolved = true
	return nil
}

// MaxLoad returns the maximum number of slots any single node owns.
func (d *Deployment) MaxLoad() int {
	load := make(map[int]int)
	max := 0
	for _, o := range d.owner {
		if o < 0 {
			continue
		}
		load[o]++
		if load[o] > max {
			max = load[o]
		}
	}
	return max
}

// destinationSlots returns the slot indices a source block of the given
// level must reach: part `level` under SLC, parts level..n-1 under PLC,
// and every part under RLC.
func (d *Deployment) destinationSlots(level int) []int {
	var out []int
	for i, p := range d.partOf {
		switch d.cfg.Scheme {
		case core.SLC:
			if p == level {
				out = append(out, i)
			}
		case core.PLC:
			if p >= level {
				out = append(out, i)
			}
		default: // RLC
			out = append(out, i)
		}
	}
	return out
}

// Disseminate routes source block blockIdx (with the given payload) from
// its origin node to its destination slots, folding it into each slot's
// coded block with a fresh random coefficient. The rng drives both the
// sparse fanout selection and the coding coefficients.
func (d *Deployment) Disseminate(rng *rand.Rand, tr Transport, origin, blockIdx int, payload []byte) error {
	if !d.resolved {
		return fmt.Errorf("predist: ResolveOwners must run before dissemination")
	}
	if len(payload) != d.cfg.PayloadLen {
		return fmt.Errorf("predist: payload length %d, want %d", len(payload), d.cfg.PayloadLen)
	}
	level, err := d.cfg.Levels.LevelOf(blockIdx)
	if err != nil {
		return err
	}
	targets := d.destinationSlots(level)
	if d.cfg.Fanout > 0 && d.cfg.Fanout < len(targets) {
		picked := make([]int, 0, d.cfg.Fanout)
		for _, idx := range rng.Perm(len(targets))[:d.cfg.Fanout] {
			picked = append(picked, targets[idx])
		}
		targets = picked
	}
	for _, slot := range targets {
		node, hops, err := tr.Route(origin, d.locations[slot])
		if err != nil {
			return fmt.Errorf("predist: deliver block %d to slot %d: %w", blockIdx, slot, err)
		}
		d.stats.Messages++
		d.stats.Hops += hops
		if node != d.owner[slot] {
			d.stats.Misroutes++
			d.owner[slot] = node // the block physically lands here now
		}
		beta := byte(1 + rng.Intn(255))
		// c ← c + βx, coefficient side; a fold back to zero deletes the
		// entry so the map stays exactly the nonzero support.
		if v := d.coeff[slot][blockIdx] ^ beta; v == 0 {
			delete(d.coeff[slot], blockIdx)
		} else {
			d.coeff[slot][blockIdx] = v
		}
		if d.cfg.PayloadLen > 0 {
			gf256.AddMulSlice(d.payload[slot], payload, beta)
		}
	}
	return nil
}

// CodedBlocks returns the coded block of every slot whose owner passes the
// alive filter (nil = all) and which received at least one source block.
// The slot's level part becomes the block's level. Blocks are emitted in
// the sparse representation directly — the O(ln N) dissemination vectors
// never take a dense round-trip on their way to the wire or the decoder.
func (d *Deployment) CodedBlocks(alive func(node int) bool) []*core.CodedBlock {
	out := make([]*core.CodedBlock, 0, d.cfg.M)
	for i := range d.locations {
		if d.owner[i] < 0 {
			continue
		}
		if alive != nil && !alive(d.owner[i]) {
			continue
		}
		if len(d.coeff[i]) == 0 {
			continue
		}
		out = append(out, &core.CodedBlock{
			Level:   d.partOf[i],
			SpCoeff: sparseFromMap(d.cfg.Levels.Total(), d.coeff[i]),
			Payload: append([]byte(nil), d.payload[i]...),
		})
	}
	return out
}

// sparseFromMap converts a sparse accumulation map into canonical form.
func sparseFromMap(total int, m map[int]byte) *core.SparseCoeff {
	pos := make([]int, 0, len(m))
	for j := range m {
		pos = append(pos, j)
	}
	sort.Ints(pos)
	s := &core.SparseCoeff{
		Len: total,
		Idx: make([]uint32, len(pos)),
		Val: make([]byte, len(pos)),
	}
	for i, j := range pos {
		s.Idx[i] = uint32(j)
		s.Val[i] = m[j]
	}
	return s
}
