package gossip

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/geom"
)

func connectedGraph(t testing.TB, seed int64, n int, radius float64) *geom.Graph {
	t.Helper()
	g, err := geom.ConnectedUnitDisk(rand.New(rand.NewSource(seed)), n, radius)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustLevels(t testing.TB, sizes ...int) *core.Levels {
	t.Helper()
	l, err := core.NewLevels(sizes...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewWalkerValidation(t *testing.T) {
	if _, err := NewWalker(nil, 0); err == nil {
		t.Error("nil graph accepted")
	}
	g := connectedGraph(t, 1, 30, 0.35)
	if _, err := NewWalker(g, -1); err == nil {
		t.Error("negative steps accepted")
	}
	w, err := NewWalker(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Steps() != 4*30 {
		t.Errorf("default steps = %d, want %d", w.Steps(), 120)
	}
	if w.NumNodes() != 30 {
		t.Errorf("NumNodes = %d", w.NumNodes())
	}
}

func TestWalkValidation(t *testing.T) {
	g := connectedGraph(t, 2, 30, 0.35)
	w, err := NewWalker(g, 50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if _, _, err := w.Walk(rng, -1, nil); err == nil {
		t.Error("negative origin accepted")
	}
	if _, _, err := w.Walk(rng, 99, nil); err == nil {
		t.Error("out-of-range origin accepted")
	}
	alive := make([]bool, 30)
	if err := w.SetAlive(alive); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Walk(rng, 0, nil); err == nil {
		t.Error("dead origin accepted")
	}
	if err := w.SetAlive(make([]bool, 5)); err == nil {
		t.Error("wrong-length alive vector accepted")
	}
}

// TestWalkStationaryIsUniform is the Metropolis–Hastings property: the
// terminal-node distribution over many walks must be near-uniform even on
// an irregular-degree graph.
func TestWalkStationaryIsUniform(t *testing.T) {
	g := connectedGraph(t, 4, 60, 0.25)
	w, err := NewWalker(g, 300)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const walks = 12000
	counts := make([]int, g.Len())
	for i := 0; i < walks; i++ {
		node, _, err := w.Walk(rng, rng.Intn(g.Len()), nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[node]++
	}
	want := float64(walks) / float64(g.Len()) // 200 per node
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.5 {
			t.Errorf("node %d (degree %d) visited %d times, want ~%.0f",
				i, g.Degree(i), c, want)
		}
	}
}

func TestWalkAvoidsDeadNodes(t *testing.T) {
	g := connectedGraph(t, 6, 60, 0.3)
	w, err := NewWalker(g, 200)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	alive := make([]bool, g.Len())
	for i := range alive {
		alive[i] = i%3 != 0
	}
	alive[1] = true
	if err := w.SetAlive(alive); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		node, _, err := w.Walk(rng, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !alive[node] {
			t.Fatalf("walk terminated on dead node %d", node)
		}
	}
	if w.Alive(0) || !w.Alive(1) || w.Alive(-1) {
		t.Error("Alive accessor misbehaves")
	}
}

func TestWalkAcceptFilter(t *testing.T) {
	g := connectedGraph(t, 8, 40, 0.3)
	w, err := NewWalker(g, 30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	// Only even nodes acceptable.
	for trial := 0; trial < 30; trial++ {
		node, _, err := w.Walk(rng, 0, func(n int) bool { return n%2 == 0 })
		if err != nil {
			t.Fatal(err)
		}
		if node%2 != 0 {
			t.Fatalf("walk accepted odd node %d", node)
		}
	}
	// An unsatisfiable filter errors out instead of looping forever.
	if _, _, err := w.Walk(rng, 0, func(int) bool { return false }); err == nil {
		t.Error("unsatisfiable filter succeeded")
	}
}

func TestNewDeploymentValidation(t *testing.T) {
	g := connectedGraph(t, 10, 30, 0.35)
	w, err := NewWalker(g, 50)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLevels(t, 2, 4)
	good := Config{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2)}
	if _, err := NewDeployment(w, good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Scheme: core.PLC, Dist: core.NewUniformDistribution(2)},
		{Scheme: core.Scheme(0), Levels: l, Dist: core.NewUniformDistribution(2)},
		{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(3)},
		{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2), Fanout: -1},
		{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2), PayloadLen: -1},
	}
	for i, cfg := range bad {
		if _, err := NewDeployment(w, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewDeployment(nil, good); err == nil {
		t.Error("nil walker accepted")
	}
}

func TestPartAssignmentCommonSeed(t *testing.T) {
	g := connectedGraph(t, 11, 50, 0.3)
	w, err := NewWalker(g, 50)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLevels(t, 2, 4)
	cfg := Config{Scheme: core.PLC, Levels: l, Dist: core.PriorityDistribution{0.3, 0.7}, Seed: 42}
	a, err := NewDeployment(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDeployment(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	count0 := 0
	for i := 0; i < 50; i++ {
		if a.PartOf(i) != b.PartOf(i) {
			t.Fatal("same seed produced different part assignments")
		}
		if a.PartOf(i) == 0 {
			count0++
		}
	}
	if count0 != 15 { // 0.3 * 50
		t.Errorf("part 0 has %d nodes, want 15", count0)
	}
}

// TestGossipEndToEnd runs the full gossip pipeline: disseminate with
// random walks, kill nodes, collect, verify priority-ordered recovery and
// payload fidelity.
func TestGossipEndToEnd(t *testing.T) {
	g := connectedGraph(t, 12, 120, 0.2)
	w, err := NewWalker(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLevels(t, 4, 8, 12) // N = 24
	rng := rand.New(rand.NewSource(13))
	d, err := NewDeployment(w, Config{
		Scheme: core.PLC, Levels: l,
		Dist: core.PriorityDistribution{0.4, 0.3, 0.3},
		Seed: 14, Fanout: 40, PayloadLen: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sources := make([][]byte, l.Total())
	for i := range sources {
		sources[i] = make([]byte, 8)
		rng.Read(sources[i])
		if err := d.Disseminate(rng, rng.Intn(120), i, sources[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.Walks != 40*l.Total() || st.Hops == 0 {
		t.Errorf("stats = %+v", st)
	}

	// Full collection decodes everything.
	dec, err := core.NewDecoder(core.PLC, l, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect.Run(collect.Shuffle(rng, d.CodedBlocks(nil)), dec, collect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("gossip deployment incomplete: %+v", res)
	}
	for i := range sources {
		got, err := dec.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sources[i]) {
			t.Fatalf("source %d corrupted", i)
		}
	}

	// Under 50% failures, the critical level still survives.
	dead := make(map[int]bool)
	for i := 0; i < 120; i++ {
		if rng.Float64() < 0.5 {
			dead[i] = true
		}
	}
	if dec, err = core.NewDecoder(core.PLC, l, 8); err != nil {
		t.Fatal(err)
	}
	res, err = collect.Run(collect.Shuffle(rng, d.CodedBlocks(func(n int) bool { return !dead[n] })), dec, collect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodedLevels < 1 {
		t.Errorf("critical level lost under 50%% failures: %+v", res)
	}
}

// TestGossipSupportInvariant: gossip caches must respect the scheme's
// coefficient support, enforced by core.Decoder.
func TestGossipSupportInvariant(t *testing.T) {
	g := connectedGraph(t, 15, 60, 0.3)
	w, err := NewWalker(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLevels(t, 3, 3, 3)
	for _, scheme := range []core.Scheme{core.RLC, core.SLC, core.PLC} {
		rng := rand.New(rand.NewSource(16))
		d, err := NewDeployment(w, Config{
			Scheme: scheme, Levels: l, Dist: core.NewUniformDistribution(3),
			Seed: 17, Fanout: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < l.Total(); i++ {
			if err := d.Disseminate(rng, rng.Intn(60), i, nil); err != nil {
				t.Fatal(err)
			}
		}
		dec, err := core.NewDecoder(scheme, l, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range d.CodedBlocks(nil) {
			if _, err := dec.Add(b); err != nil {
				t.Fatalf("%v: gossip cache violates support: %v", scheme, err)
			}
		}
	}
}

func TestDisseminateValidation(t *testing.T) {
	g := connectedGraph(t, 18, 30, 0.35)
	w, err := NewWalker(g, 50)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLevels(t, 1, 1)
	d, err := NewDeployment(w, Config{
		Scheme: core.SLC, Levels: l, Dist: core.NewUniformDistribution(2),
		PayloadLen: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	if err := d.Disseminate(rng, 0, 5, []byte{1, 2}); err == nil {
		t.Error("out-of-range block accepted")
	}
	if err := d.Disseminate(rng, 0, 0, []byte{1}); err == nil {
		t.Error("short payload accepted")
	}
}

func BenchmarkWalk(b *testing.B) {
	g := connectedGraph(b, 20, 200, 0.15)
	w, err := NewWalker(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Walk(rng, rng.Intn(200), nil); err != nil {
			b.Fatal(err)
		}
	}
}
