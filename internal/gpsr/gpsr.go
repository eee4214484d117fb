// Package gpsr implements greedy perimeter stateless routing over a
// geometric graph — the sensor-network routing substrate the Sec. 4
// pre-distribution protocol assumes ("a geometric routing protocol can
// route source blocks to a random point in the geometric network such as
// GPSR").
//
// Routing is location-centric, GHT style: a packet addressed to a point is
// delivered to the point's home node — the node closest to it. Forwarding
// is greedy (always to the neighbor strictly closer to the destination);
// at a local minimum the packet enters perimeter mode and traverses the
// face of the Gabriel-planarized graph intersected by the line to the
// destination under the right-hand rule, changing faces at edges that
// cross that line closer to the destination (the GPSR crossing rule) and
// resuming greedy forwarding as soon as a node closer than the point of
// entry is reached. A face tour that completes without progress ends the
// route at the home node, mirroring GHT's home-perimeter confirmation.
//
// The protocol is packet-stateless on nodes: all per-route state travels
// in PacketState, and Step forwards one hop using only information local
// to the current node — its neighbors' positions and its own planar
// adjacency (both locally computable in a real deployment). Route is the
// centralized convenience wrapper over Step; a message-passing
// deployment would drive Step from each node directly.
package gpsr

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Router routes packets over a fixed node deployment. Node failures are
// modeled with SetAlive; the planar subgraph is re-derived from the
// surviving topology, since dead witnesses must not suppress Gabriel
// edges.
type Router struct {
	g     *geom.Graph
	alive []bool
	// gabriel[v] holds v's planar neighbors sorted by polar angle, used by
	// the right-hand rule.
	gabriel [][]int
	// maxSteps caps a single route; defaults to 4 * |V|.
	maxSteps int
}

// New builds a router over the given connectivity graph with all nodes
// alive.
func New(g *geom.Graph) (*Router, error) {
	if g == nil {
		return nil, fmt.Errorf("gpsr: nil graph")
	}
	r := &Router{
		g:        g,
		alive:    make([]bool, g.Len()),
		maxSteps: 4 * g.Len(),
	}
	for i := range r.alive {
		r.alive[i] = true
	}
	r.replanarize()
	return r, nil
}

// SetAlive marks node liveness and recomputes the planar subgraph over the
// survivors. The slice must have one entry per node.
func (r *Router) SetAlive(alive []bool) error {
	if len(alive) != r.g.Len() {
		return fmt.Errorf("gpsr: alive vector has %d entries, want %d", len(alive), r.g.Len())
	}
	copy(r.alive, alive)
	r.replanarize()
	return nil
}

// Alive reports whether node i is alive.
func (r *Router) Alive(i int) bool { return i >= 0 && i < len(r.alive) && r.alive[i] }

// replanarize rebuilds the angle-sorted Gabriel adjacency over alive nodes.
func (r *Router) replanarize() {
	n := r.g.Len()
	r.gabriel = make([][]int, n)
	for u := 0; u < n; u++ {
		if !r.alive[u] {
			continue
		}
		pu := r.g.Pos(u)
		for _, v := range r.g.Neighbors(u) {
			if v <= u || !r.alive[v] {
				continue
			}
			mid := pu.Mid(r.g.Pos(v))
			r2 := pu.Dist2(r.g.Pos(v)) / 4
			blocked := false
			for _, w := range r.g.Neighbors(u) {
				if w != v && r.alive[w] && mid.Dist2(r.g.Pos(w)) < r2-1e-15 {
					blocked = true
					break
				}
			}
			if !blocked {
				r.gabriel[u] = append(r.gabriel[u], v)
				r.gabriel[v] = append(r.gabriel[v], u)
			}
		}
	}
	for u := 0; u < n; u++ {
		nbrs := r.gabriel[u]
		pu := r.g.Pos(u)
		sort.Slice(nbrs, func(i, j int) bool {
			return r.angleFrom(pu, nbrs[i]) < r.angleFrom(pu, nbrs[j])
		})
	}
}

func (r *Router) angleFrom(from geom.Point, to int) float64 {
	p := r.g.Pos(to)
	return math.Atan2(p.Y-from.Y, p.X-from.X)
}

// Mode is a packet's forwarding mode.
type Mode int

const (
	// GreedyMode forwards to the neighbor strictly closer to the
	// destination. The zero PacketState is a fresh greedy packet.
	GreedyMode Mode = iota
	// PerimeterMode traverses the planar face enclosing the destination
	// by the right-hand rule.
	PerimeterMode
)

// PacketState is the per-packet routing state GPSR carries in the packet
// header — nodes themselves stay stateless. A zero PacketState starts a
// fresh greedy packet. The perimeter fields record where the packet
// entered perimeter mode (Entry, EntryD), the best crossing of the
// Lp→destination segment seen so far (LastCross), the first edge of the
// face being toured (FirstCur → FirstNext, with Started marking whether
// that edge has been traversed yet), and the previous hop (Prev) for the
// right-hand rule.
type PacketState struct {
	Mode      Mode
	Entry     int
	EntryD    float64
	LastCross float64
	FirstCur  int
	FirstNext int
	Prev      int
	Started   bool
}

// StepResult is the outcome of forwarding a packet one hop.
type StepResult struct {
	// Arrived reports packet termination: the current node is the home
	// node (Home == the node Step was invoked at).
	Arrived bool
	Home    int
	// Next is the next hop and State the header to carry to it (valid
	// when !Arrived).
	Next  int
	State PacketState
}

// Step forwards a packet currently held by node cur one hop toward the
// home node of dst, using only information local to cur (its neighbors'
// positions and its planar adjacency) plus the packet-carried state —
// the distributed, stateless form of the routing the centralized Route
// wraps.
func (r *Router) Step(cur int, dst geom.Point, st PacketState) (StepResult, error) {
	if cur < 0 || cur >= r.g.Len() {
		return StepResult{}, fmt.Errorf("gpsr: node %d out of range", cur)
	}
	if !r.alive[cur] {
		return StepResult{}, fmt.Errorf("gpsr: node %d is not alive", cur)
	}
	if r.g.Pos(cur).Dist2(dst) == 0 {
		return StepResult{Arrived: true, Home: cur}, nil
	}

	if st.Mode != PerimeterMode {
		if next, ok := r.greedyNext(cur, dst); ok {
			return StepResult{Next: next}, nil // State stays zero: greedy
		}
		// Local minimum: enter perimeter mode at cur.
		if len(r.gabriel[cur]) == 0 {
			return StepResult{Arrived: true, Home: cur}, nil
		}
		d := r.g.Pos(cur).Dist2(dst)
		st = PacketState{
			Mode:      PerimeterMode,
			Entry:     cur,
			EntryD:    d,
			LastCross: d,
			FirstCur:  cur,
			FirstNext: r.firstEdge(cur, dst),
			Prev:      cur,
		}
	} else if r.g.Pos(cur).Dist2(dst) < st.EntryD {
		// Progress past the perimeter entry point: resume greedy.
		return r.Step(cur, dst, PacketState{})
	}

	// Perimeter advance from cur.
	var next int
	if !st.Started && cur == st.FirstCur {
		next = st.FirstNext
	} else {
		next = r.rightHandNext(cur, st.Prev)
	}
	// Face change: while the edge about to be traversed crosses the
	// Entry→dst segment strictly closer to dst than any previous crossing,
	// rotate past it onto the adjacent face.
	lp := r.g.Pos(st.Entry)
	for {
		x, crosses := segmentIntersection(r.g.Pos(cur), r.g.Pos(next), lp, dst)
		if !crosses {
			break
		}
		d := x.Dist2(dst)
		if d >= st.LastCross-1e-15 {
			break
		}
		st.LastCross = d
		rotated := r.rightHandNext(cur, next)
		if rotated == next {
			break // degree-1 bounce; nothing to rotate to
		}
		next = rotated
		st.FirstCur, st.FirstNext = cur, next
		st.Started = false
	}
	if st.Started && cur == st.FirstCur && next == st.FirstNext {
		// Completed the face tour without progress: cur is the home node.
		return StepResult{Arrived: true, Home: cur}, nil
	}
	st.Started = true
	st.Prev = cur
	return StepResult{Next: next, State: st}, nil
}

// Route delivers a packet from node src to the home node of point dst and
// returns the node path taken (starting with src). It fails when src is
// dead or the route exceeds the step cap (a symptom of a partitioned
// survivor topology). Route is the centralized wrapper over Step.
func (r *Router) Route(src int, dst geom.Point) ([]int, error) {
	if src < 0 || src >= r.g.Len() {
		return nil, fmt.Errorf("gpsr: source node %d out of range", src)
	}
	if !r.alive[src] {
		return nil, fmt.Errorf("gpsr: source node %d is not alive", src)
	}
	path := []int{src}
	cur := src
	var st PacketState
	for steps := 0; steps < 3*r.maxSteps; steps++ {
		res, err := r.Step(cur, dst, st)
		if err != nil {
			return nil, err
		}
		if res.Arrived {
			return path, nil
		}
		path = append(path, res.Next)
		cur = res.Next
		st = res.State
	}
	return nil, fmt.Errorf("gpsr: route from %d to (%.3f, %.3f) exceeded %d steps",
		src, dst.X, dst.Y, 3*r.maxSteps)
}

// greedyNext returns the alive neighbor of cur strictly closer to dst, or
// ok == false at a local minimum.
func (r *Router) greedyNext(cur int, dst geom.Point) (int, bool) {
	best := -1
	bestD := r.g.Pos(cur).Dist2(dst)
	for _, w := range r.g.Neighbors(cur) {
		if !r.alive[w] {
			continue
		}
		if d := r.g.Pos(w).Dist2(dst); d < bestD {
			best, bestD = w, d
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// firstEdge returns the first perimeter edge from entry: the planar
// neighbor first clockwise from the ray entry→dst. Together with the
// counterclockwise face successor in rightHandNext, this enters the face
// intersected by the segment entry→dst.
func (r *Router) firstEdge(entry int, dst geom.Point) int {
	nbrs := r.gabriel[entry]
	ref := math.Atan2(dst.Y-r.g.Pos(entry).Y, dst.X-r.g.Pos(entry).X)
	first := nbrs[0]
	bestGap := math.Inf(1)
	for _, w := range nbrs {
		gap := ref - r.angleFrom(r.g.Pos(entry), w)
		for gap <= 0 {
			gap += 2 * math.Pi
		}
		if gap < bestGap {
			bestGap, first = gap, w
		}
	}
	return first
}

// segmentIntersection returns the intersection point of segments ab and
// cd, and whether they properly intersect (shared endpoints and collinear
// overlaps are not treated as crossings).
func segmentIntersection(a, b, c, d geom.Point) (geom.Point, bool) {
	r1x, r1y := b.X-a.X, b.Y-a.Y
	r2x, r2y := d.X-c.X, d.Y-c.Y
	den := r1x*r2y - r1y*r2x
	if math.Abs(den) < 1e-18 {
		return geom.Point{}, false // parallel or collinear
	}
	t := ((c.X-a.X)*r2y - (c.Y-a.Y)*r2x) / den
	u := ((c.X-a.X)*r1y - (c.Y-a.Y)*r1x) / den
	const eps = 1e-12
	if t <= eps || t >= 1-eps || u <= eps || u >= 1-eps {
		return geom.Point{}, false
	}
	return geom.Point{X: a.X + t*r1x, Y: a.Y + t*r1y}, true
}

// rightHandNext returns the next face edge: the neighbor of cur first
// clockwise from the edge (cur, prev).
func (r *Router) rightHandNext(cur, prev int) int {
	nbrs := r.gabriel[cur]
	if len(nbrs) == 1 {
		return nbrs[0] // dead end: bounce back
	}
	pin := r.angleFrom(r.g.Pos(cur), prev)
	best := nbrs[0]
	bestGap := math.Inf(1)
	for _, w := range nbrs {
		if w == prev {
			continue
		}
		gap := pin - r.angleFrom(r.g.Pos(cur), w)
		for gap <= 0 {
			gap += 2 * math.Pi
		}
		if gap < bestGap {
			bestGap, best = gap, w
		}
	}
	return best
}

// HomeNode returns the alive node closest to p — the ground truth the
// routing layer approximates, exposed for verification and for the
// collector's global view.
func (r *Router) HomeNode(p geom.Point) (int, error) {
	return r.g.ClosestNode(p, func(i int) bool { return r.alive[i] })
}
