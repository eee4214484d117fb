package geom

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if got := a.Dist(b); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %g, want 5", got)
	}
	if got := a.Dist2(b); math.Abs(got-25) > 1e-12 {
		t.Errorf("Dist2 = %g, want 25", got)
	}
	if got := a.Mid(b); got != (Point{1.5, 2}) {
		t.Errorf("Mid = %v, want {1.5 2}", got)
	}
}

func TestRandomPointsInUnitSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range RandomPoints(rng, 500) {
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
			t.Fatalf("point %v outside unit square", p)
		}
	}
}

func TestSeededLocationsDeterministic(t *testing.T) {
	a := SeededLocations(42, 100)
	b := SeededLocations(42, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different locations")
		}
	}
	c := SeededLocations(43, 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical locations")
	}
}

func TestUnitDiskGraphValidation(t *testing.T) {
	if _, err := NewUnitDiskGraph(nil, 0); err == nil {
		t.Error("radius 0 accepted")
	}
	if _, err := NewUnitDiskGraph(nil, -1); err == nil {
		t.Error("negative radius accepted")
	}
	g, err := NewUnitDiskGraph(nil, 0.1)
	if err != nil || g.Len() != 0 {
		t.Errorf("empty graph: %v, %v", g, err)
	}
	if !g.Connected() {
		t.Error("empty graph should count as connected")
	}
}

func TestUnitDiskGraphEdges(t *testing.T) {
	pos := []Point{{0.1, 0.1}, {0.15, 0.1}, {0.9, 0.9}}
	g, err := NewUnitDiskGraph(pos, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Errorf("degrees = %d %d %d, want 1 1 0", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if g.Pos(2) != pos[2] {
		t.Error("Pos mismatch")
	}
}

// TestUnitDiskGraphMatchesBruteForce compares the bucketed construction
// against the O(n^2) definition.
func TestUnitDiskGraphMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pos := RandomPoints(rng, 200)
	const r = 0.15
	g, err := NewUnitDiskGraph(pos, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pos {
		want := map[int]bool{}
		for j := range pos {
			if j != i && pos[i].Dist2(pos[j]) <= r*r {
				want[j] = true
			}
		}
		if len(want) != g.Degree(i) {
			t.Fatalf("node %d: degree %d, brute force %d", i, g.Degree(i), len(want))
		}
		for _, j := range g.Neighbors(i) {
			if !want[j] {
				t.Fatalf("node %d: spurious edge to %d", i, j)
			}
		}
	}
}

func TestConnectedDenseDeployment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos := RandomPoints(rng, 400)
	g, err := NewUnitDiskGraph(pos, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Error("dense deployment unexpectedly disconnected")
	}
}

// TestErrDisconnectedIs pins the typed-error contract: an impossible
// deployment fails with a sentinel callers can branch on.
func TestErrDisconnectedIs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, err := ConnectedUnitDisk(rng, 40, 0.01)
	if err == nil {
		t.Fatal("a 0.01-radius 40-node deployment should not connect")
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want errors.Is ErrDisconnected", err)
	}
}

func TestFacadeSensorNetworkImpossible(t *testing.T) {
	// Ten nodes with a vanishing radio range can never connect.
	rng := rand.New(rand.NewSource(3))
	if _, err := ConnectedUnitDisk(rng, 10, 1e-9); err == nil {
		t.Error("impossible deployment accepted")
	}
}

func TestClosestNode(t *testing.T) {
	pos := []Point{{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.9}}
	g, err := NewUnitDiskGraph(pos, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.ClosestNode(Point{0.45, 0.55}, nil)
	if err != nil || got != 1 {
		t.Errorf("ClosestNode = %d, %v; want 1", got, err)
	}
	// Restricting to alive nodes skips the nearest.
	got, err = g.ClosestNode(Point{0.45, 0.55}, func(i int) bool { return i != 1 })
	if err != nil || got == 1 {
		t.Errorf("ClosestNode with filter = %d, %v", got, err)
	}
	if _, err := g.ClosestNode(Point{0, 0}, func(int) bool { return false }); err == nil {
		t.Error("ClosestNode with no eligible nodes succeeded, want error")
	}
}

func TestQuickUnitDiskSymmetric(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pos := RandomPoints(rng, 30)
		g, err := NewUnitDiskGraph(pos, 0.25)
		if err != nil {
			return false
		}
		for u := 0; u < g.Len(); u++ {
			for _, v := range g.Neighbors(u) {
				found := false
				for _, w := range g.Neighbors(v) {
					if w == u {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
