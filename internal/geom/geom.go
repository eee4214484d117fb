// Package geom provides the geometric-network primitives of Sec. 2 and
// Sec. 4: points in the unit square, unit-disk connectivity graphs for
// sensor networks, and the common-random-seed generation of the M cache
// locations that all nodes derive independently. GPSR's planar subgraph
// is derived over live nodes by the router itself (internal/gpsr).
package geom

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrDisconnected reports that ConnectedUnitDisk found no connected
// deployment within its attempt bound; raise the radio range or the
// node count.
var ErrDisconnected = errors.New("geom: could not sample a connected deployment")

// Point is a location in the unit square [0,1) x [0,1).
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance, cheaper when only
// comparisons are needed.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Mid returns the midpoint of the segment pq.
func (p Point) Mid(q Point) Point {
	return Point{X: (p.X + q.X) / 2, Y: (p.Y + q.Y) / 2}
}

// RandomPoints returns n points drawn uniformly from the unit square.
func RandomPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

// SeededLocations deterministically generates the M random cache locations
// from a shared seed — the Sec. 4 mechanism by which every node, knowing
// only the common random seed, reconstructs the same set of storage points
// without any coordination.
func SeededLocations(seed int64, m int) []Point {
	return RandomPoints(rand.New(rand.NewSource(seed)), m)
}

// Graph is an undirected geometric graph over indexed node positions.
type Graph struct {
	pos []Point
	adj [][]int
}

// NewUnitDiskGraph connects every pair of nodes within the given radio
// range — the standard sensor-network connectivity model.
func NewUnitDiskGraph(pos []Point, radius float64) (*Graph, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("geom: radius %g, want > 0", radius)
	}
	g := &Graph{
		pos: append([]Point(nil), pos...),
		adj: make([][]int, len(pos)),
	}
	r2 := radius * radius
	// Grid-bucket the nodes so construction is near-linear for the dense
	// deployments the experiments use.
	cell := radius
	if cell > 1 {
		cell = 1
	}
	nCells := int(math.Ceil(1 / cell))
	buckets := make(map[[2]int][]int)
	key := func(p Point) [2]int {
		cx, cy := int(p.X/cell), int(p.Y/cell)
		if cx >= nCells {
			cx = nCells - 1
		}
		if cy >= nCells {
			cy = nCells - 1
		}
		return [2]int{cx, cy}
	}
	for i, p := range pos {
		buckets[key(p)] = append(buckets[key(p)], i)
	}
	for i, p := range pos {
		k := key(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[[2]int{k[0] + dx, k[1] + dy}] {
					if j <= i {
						continue
					}
					if p.Dist2(pos[j]) <= r2 {
						g.adj[i] = append(g.adj[i], j)
						g.adj[j] = append(g.adj[j], i)
					}
				}
			}
		}
	}
	return g, nil
}

// ConnectedUnitDisk samples n uniform positions and their unit-disk
// graph, re-sampling until the graph is connected. It fails with
// ErrDisconnected after 200 samples.
func ConnectedUnitDisk(rng *rand.Rand, n int, radius float64) (*Graph, error) {
	for attempt := 0; attempt < 200; attempt++ {
		g, err := NewUnitDiskGraph(RandomPoints(rng, n), radius)
		if err != nil {
			return nil, err
		}
		if g.Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("%w (%d nodes, radius %g)", ErrDisconnected, n, radius)
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.pos) }

// Pos returns the position of node i.
func (g *Graph) Pos(i int) Point { return g.pos[i] }

// Neighbors returns the adjacency list of node i (not a copy; callers must
// not mutate it).
func (g *Graph) Neighbors(i int) []int { return g.adj[i] }

// Degree returns the number of neighbors of node i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// Connected reports whether the graph is connected (true for the empty
// graph).
func (g *Graph) Connected() bool {
	n := len(g.pos)
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// ClosestNode returns the index of the node nearest to p — the node "in
// charge of" a random cache location in the Sec. 4 protocol. alive, when
// non-nil, restricts the search to nodes for which alive(i) is true.
// Returns an error when no eligible node exists.
func (g *Graph) ClosestNode(p Point, alive func(int) bool) (int, error) {
	best, bestD := -1, math.Inf(1)
	for i, q := range g.pos {
		if alive != nil && !alive(i) {
			continue
		}
		if d := p.Dist2(q); d < bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("geom: no eligible node for location (%.3f, %.3f)", p.X, p.Y)
	}
	return best, nil
}
