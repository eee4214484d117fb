package gpsr

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestGabrielSubsetAndPlanarityWitness checks the router's planar
// adjacency against the Gabriel rule over the live nodes: every planar
// edge is a unit-disk edge between two live nodes with no live witness in
// its diameter disk, and every live unit-disk edge it drops has one. It
// runs with every node alive, then again after SetAlive kills about a
// fifth of them, where a dead node inside a diameter disk must not
// suppress the edge (and the failure pattern must produce such an edge,
// or the second pass would prove nothing).
func TestGabrielSubsetAndPlanarityWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pos := geom.RandomPoints(rng, 150)
	g, err := geom.NewUnitDiskGraph(pos, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	// witnesses counts the live and the dead nodes strictly inside the
	// disk with diameter uv.
	witnesses := func(u, v int) (live, dead int) {
		mid := pos[u].Mid(pos[v])
		r2 := pos[u].Dist2(pos[v]) / 4
		for w := range pos {
			if w != u && w != v && mid.Dist2(pos[w]) < r2-1e-15 {
				if r.Alive(w) {
					live++
				} else {
					dead++
				}
			}
		}
		return live, dead
	}
	check := func(name string) (deadOnly int) {
		for u := 0; u < g.Len(); u++ {
			for _, v := range r.gabriel[u] {
				if !r.Alive(u) || !r.Alive(v) {
					t.Fatalf("%s: planar edge (%d,%d) touches a dead node", name, u, v)
				}
				if !slices.Contains(g.Neighbors(u), v) {
					t.Fatalf("%s: planar edge (%d,%d) not in unit-disk graph", name, u, v)
				}
				if !slices.Contains(r.gabriel[v], u) {
					t.Fatalf("%s: planar edge (%d,%d) is one-way", name, u, v)
				}
				if live, _ := witnesses(u, v); live > 0 {
					t.Fatalf("%s: kept planar edge (%d,%d) has a live witness", name, u, v)
				}
			}
			if !r.Alive(u) {
				continue
			}
			for _, v := range g.Neighbors(u) {
				if v < u || !r.Alive(v) {
					continue
				}
				live, dead := witnesses(u, v)
				kept := slices.Contains(r.gabriel[u], v)
				if !kept && live == 0 {
					t.Fatalf("%s: removed edge (%d,%d) has no live witness (%d dead ones)", name, u, v, dead)
				}
				if live == 0 && dead > 0 {
					deadOnly++
				}
			}
		}
		return deadOnly
	}
	check("all alive")

	alive := make([]bool, g.Len())
	for i := range alive {
		alive[i] = rng.Intn(5) != 0
	}
	if err := r.SetAlive(alive); err != nil {
		t.Fatal(err)
	}
	if n := check("after failures"); n == 0 {
		t.Fatal("after failures: no live edge has only dead witnesses; pick another seed")
	}
}

// TestGabrielPreservesConnectivity: the router's planar adjacency over a
// connected unit-disk graph stays connected (a classical Gabriel property
// perimeter mode relies on), and so does the one SetAlive rebuilds over
// survivors that are still connected.
func TestGabrielPreservesConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		pos := geom.RandomPoints(rng, 300)
		g, err := geom.NewUnitDiskGraph(pos, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			continue
		}
		r, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		planar := func(v int) []int { return r.gabriel[v] }
		alive := make([]bool, g.Len())
		for i := range alive {
			alive[i] = true
		}
		if !aliveConnected(alive, planar) {
			t.Fatal("planar graph of connected UDG is disconnected")
		}
		for i := range alive {
			alive[i] = rng.Intn(10) != 0
		}
		if !aliveConnected(alive, g.Neighbors) {
			continue
		}
		if err := r.SetAlive(alive); err != nil {
			t.Fatal(err)
		}
		if !aliveConnected(alive, planar) {
			t.Fatal("planar graph of connected survivors is disconnected")
		}
	}
}
