package predist

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
)

// repairScenario builds a deployed sensor network, disseminates sources
// and returns all the moving parts.
func repairScenario(t *testing.T) (*Deployment, *GeoTransport, [][]byte, *rand.Rand) {
	t.Helper()
	tr := sensorTransport(t, 30, 150)
	l := mustLevels(t, 4, 8, 12) // N = 24
	rng := rand.New(rand.NewSource(31))
	d, err := NewDeployment(Config{
		Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(3),
		M: 100, Seed: 32, PayloadLen: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ResolveOwners(tr); err != nil {
		t.Fatal(err)
	}
	sources := make([][]byte, l.Total())
	for i := range sources {
		sources[i] = make([]byte, 8)
		rng.Read(sources[i])
		if err := d.Disseminate(rng, tr, rng.Intn(150), i, sources[i]); err != nil {
			t.Fatal(err)
		}
	}
	return d, tr, sources, rng
}

func TestRepairValidation(t *testing.T) {
	d, tr, sources, rng := repairScenario(t)
	aliveAll := func(int) bool { return true }
	if _, err := d.Repair(rng, tr, 0, sources, nil); err == nil {
		t.Error("nil alive predicate accepted")
	}
	if _, err := d.Repair(rng, tr, 0, sources[:3], aliveAll); err == nil {
		t.Error("short sources accepted")
	}
	bad := make([][]byte, len(sources))
	for i := range bad {
		bad[i] = []byte{1}
	}
	if _, err := d.Repair(rng, tr, 0, bad, aliveAll); err == nil {
		t.Error("wrong payload length accepted")
	}
	// Unresolved deployment rejects Repair.
	fresh, err := NewDeployment(Config{
		Scheme: core.PLC, Levels: d.cfg.Levels, Dist: core.NewUniformDistribution(3),
		M: 10, PayloadLen: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Repair(rng, tr, 0, sources, aliveAll); err == nil {
		t.Error("unresolved deployment accepted")
	}
}

func TestRepairNoFailuresIsNoop(t *testing.T) {
	d, tr, sources, rng := repairScenario(t)
	before := d.Stats()
	n, err := d.Repair(rng, tr, 0, sources, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("repaired %d slots with no failures", n)
	}
	if d.Stats() != before {
		t.Error("no-op repair changed stats")
	}
}

// TestRepairRestoresRedundancy is the full cycle: fail 40% of nodes,
// collect + decode from survivors, repair the lost slots, fail ANOTHER 40%
// — without the repair that second wave would usually destroy the data;
// with it, full recovery must still succeed from the refreshed caches.
func TestRepairRestoresRedundancy(t *testing.T) {
	d, tr, sources, rng := repairScenario(t)

	// First failure wave.
	dead := make(map[int]bool)
	for i := 0; i < 150; i++ {
		if rng.Float64() < 0.4 {
			dead[i] = true
		}
	}
	alive := func(n int) bool { return !dead[n] }
	if err := tr.Router.SetAlive(aliveVector(150, alive)); err != nil {
		t.Fatal(err)
	}

	// The collector decodes everything from the survivors.
	dec, err := core.NewDecoder(core.PLC, d.cfg.Levels, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect.Run(collect.Shuffle(rng, d.CodedBlocks(alive)), dec, collect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Skip("first wave already unrecoverable for this seed; repair moot")
	}
	decoded := dec.Sources()

	// Repair from a surviving origin.
	origin := 0
	for dead[origin] {
		origin++
	}
	repaired, err := d.Repair(rng, tr, origin, decoded, alive)
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Fatal("first wave killed no caches?")
	}
	// All owners must now be alive.
	for slot := 0; slot < d.M(); slot++ {
		if !alive(d.Owner(slot)) {
			t.Fatalf("slot %d still owned by dead node %d", slot, d.Owner(slot))
		}
	}

	// Second failure wave on the survivors.
	for i := 0; i < 150; i++ {
		if !dead[i] && rng.Float64() < 0.4 {
			dead[i] = true
		}
	}
	if dec, err = core.NewDecoder(core.PLC, d.cfg.Levels, 8); err != nil {
		t.Fatal(err)
	}
	res, err = collect.Run(collect.Shuffle(rng, d.CodedBlocks(alive)), dec, collect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("repaired deployment lost data after the second wave (%d caches left)",
			len(d.CodedBlocks(alive)))
	}
	for i := range sources {
		got, err := dec.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sources[i]) {
			t.Fatalf("source %d corrupted through repair", i)
		}
	}
}

// TestRepairedBlocksRespectSupport: repaired caches must still be valid
// scheme blocks.
func TestRepairedBlocksRespectSupport(t *testing.T) {
	d, tr, sources, rng := repairScenario(t)
	dead := map[int]bool{}
	for i := 0; i < 150; i += 3 {
		dead[i] = true
	}
	alive := func(n int) bool { return !dead[n] }
	if err := tr.Router.SetAlive(aliveVector(150, alive)); err != nil {
		t.Fatal(err)
	}
	origin := 1
	if _, err := d.Repair(rng, tr, origin, sources, alive); err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewDecoder(core.PLC, d.cfg.Levels, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range d.CodedBlocks(alive) {
		if _, err := dec.Add(b); err != nil {
			t.Fatalf("repaired block violates support: %v", err)
		}
	}
}

func aliveVector(n int, alive func(int) bool) []bool {
	v := make([]bool, n)
	for i := range v {
		v[i] = alive(i)
	}
	return v
}
