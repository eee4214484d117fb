package gpsr

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func denseRouter(t testing.TB, seed int64, n int, radius float64) (*Router, *geom.Graph) {
	t.Helper()
	g, err := geom.ConnectedUnitDisk(rand.New(rand.NewSource(seed)), n, radius)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return r, g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestRouteValidation(t *testing.T) {
	r, _ := denseRouter(t, 1, 50, 0.3)
	if _, err := r.Route(-1, geom.Point{X: 0.5, Y: 0.5}); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := r.Route(50, geom.Point{X: 0.5, Y: 0.5}); err == nil {
		t.Error("out-of-range source accepted")
	}
	alive := make([]bool, 50)
	for i := range alive {
		alive[i] = true
	}
	alive[3] = false
	if err := r.SetAlive(alive); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Route(3, geom.Point{X: 0.5, Y: 0.5}); err == nil {
		t.Error("dead source accepted")
	}
	if err := r.SetAlive(make([]bool, 3)); err == nil {
		t.Error("wrong-length alive vector accepted")
	}
}

func TestAliveAccessor(t *testing.T) {
	r, _ := denseRouter(t, 2, 20, 0.4)
	if !r.Alive(0) || r.Alive(-1) || r.Alive(99) {
		t.Error("Alive accessor misbehaves")
	}
}

// TestRouteReachesHomeNode is the core delivery property: on dense
// connected deployments, routing to a random point terminates at (or very
// near) the node closest to that point.
func TestRouteReachesHomeNode(t *testing.T) {
	r, g := denseRouter(t, 3, 300, 0.12)
	rng := rand.New(rand.NewSource(4))
	exact, total := 0, 0
	for trial := 0; trial < 200; trial++ {
		src := rng.Intn(g.Len())
		dst := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		path, err := r.Route(src, dst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if path[0] != src {
			t.Fatalf("path does not start at source: %v", path)
		}
		last := path[len(path)-1]
		want, err := r.HomeNode(dst)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if last == want {
			exact++
		} else if g.Pos(last).Dist(dst) > g.Pos(want).Dist(dst)+0.12 {
			// The simplified perimeter mode may occasionally settle on a
			// nearby face node, but never far from the true home.
			t.Fatalf("trial %d: delivered to %d at dist %.3f, home %d at dist %.3f",
				trial, last, g.Pos(last).Dist(dst), want, g.Pos(want).Dist(dst))
		}
	}
	if exact < total*9/10 {
		t.Errorf("only %d/%d routes reached the exact home node", exact, total)
	}
}

// TestRoutePathIsConnected verifies every hop uses a real edge between
// alive nodes.
func TestRoutePathIsConnected(t *testing.T) {
	r, g := denseRouter(t, 5, 200, 0.15)
	rng := rand.New(rand.NewSource(6))
	isEdge := func(u, v int) bool {
		for _, w := range g.Neighbors(u) {
			if w == v {
				return true
			}
		}
		return false
	}
	for trial := 0; trial < 50; trial++ {
		src := rng.Intn(g.Len())
		dst := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		path, err := r.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(path); i++ {
			if !isEdge(path[i-1], path[i]) {
				t.Fatalf("hop %d->%d is not an edge", path[i-1], path[i])
			}
		}
	}
}

// TestRouteSurvivesFailures kills a third of the nodes and verifies routing
// still delivers among the survivors when they remain connected.
func TestRouteSurvivesFailures(t *testing.T) {
	r, g := denseRouter(t, 7, 300, 0.15)
	rng := rand.New(rand.NewSource(8))
	alive := make([]bool, g.Len())
	for i := range alive {
		alive[i] = rng.Float64() > 0.33
	}
	alive[0] = true
	if err := r.SetAlive(alive); err != nil {
		t.Fatal(err)
	}
	// Check survivor connectivity via BFS over alive nodes; skip the test
	// body if the failure pattern partitioned the network.
	if !aliveConnected(alive, g.Neighbors) {
		t.Skip("survivor topology partitioned for this seed")
	}
	delivered := 0
	for trial := 0; trial < 100; trial++ {
		dst := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		path, err := r.Route(0, dst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, v := range path {
			if !alive[v] {
				t.Fatalf("route passes through dead node %d", v)
			}
		}
		want, err := r.HomeNode(dst)
		if err != nil {
			t.Fatal(err)
		}
		if path[len(path)-1] == want {
			delivered++
		}
	}
	if delivered < 85 {
		t.Errorf("only %d/100 routes reached the home node under failures", delivered)
	}
}

// aliveConnected reports whether the live nodes form one component of the
// graph nbrs describes; edges to dead nodes are ignored.
func aliveConnected(alive []bool, nbrs func(int) []int) bool {
	start := -1
	count := 0
	for i, a := range alive {
		if a {
			count++
			if start < 0 {
				start = i
			}
		}
	}
	if count == 0 {
		return true
	}
	seen := make([]bool, len(alive))
	seen[start] = true
	stack := []int{start}
	reached := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range nbrs(v) {
			if alive[w] && !seen[w] {
				seen[w] = true
				reached++
				stack = append(stack, w)
			}
		}
	}
	return reached == count
}

// TestRouteToOwnLocation: routing from a node to its own position is a
// zero-hop route.
func TestRouteToOwnLocation(t *testing.T) {
	r, g := denseRouter(t, 9, 100, 0.2)
	for src := 0; src < 10; src++ {
		path, err := r.Route(src, g.Pos(src))
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != 1 || path[0] != src {
			t.Errorf("route to own position = %v, want [%d]", path, src)
		}
	}
}

func TestHomeNodeMatchesClosest(t *testing.T) {
	r, g := denseRouter(t, 10, 100, 0.2)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		dst := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		home, err := r.HomeNode(dst)
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.ClosestNode(dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if home != want {
			t.Errorf("HomeNode = %d, want %d", home, want)
		}
	}
}

func BenchmarkRoute300(b *testing.B) {
	r, g := denseRouter(b, 12, 300, 0.12)
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := rng.Intn(g.Len())
		dst := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		if _, err := r.Route(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
