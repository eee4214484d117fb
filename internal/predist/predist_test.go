package predist

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/chord"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/gpsr"
)

func mustLevels(t testing.TB, sizes ...int) *core.Levels {
	t.Helper()
	l, err := core.NewLevels(sizes...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func sensorTransport(t testing.TB, seed int64, nodes int) *GeoTransport {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var g *geom.Graph
	for {
		pos := geom.RandomPoints(rng, nodes)
		var err error
		g, err = geom.NewUnitDiskGraph(pos, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		if g.Connected() {
			break
		}
	}
	r, err := gpsr.New(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewGeoTransport(r, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func dhtTransport(t testing.TB, seed int64, nodes int) *DHTTransport {
	t.Helper()
	ring, err := chord.NewRandom(rand.New(rand.NewSource(seed)), nodes)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewDHTTransport(ring)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	l := mustLevels(t, 2, 2)
	good := Config{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2), M: 10}
	if _, err := NewDeployment(good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Scheme: core.PLC, Dist: core.NewUniformDistribution(2), M: 10},
		{Scheme: core.Scheme(0), Levels: l, Dist: core.NewUniformDistribution(2), M: 10},
		{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(3), M: 10},
		{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2), M: 0},
		{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2), M: 10, Fanout: -1},
		{Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2), M: 10, PayloadLen: -1},
	}
	for i, cfg := range bad {
		if _, err := NewDeployment(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestApportionMatchesDistribution(t *testing.T) {
	l := mustLevels(t, 50, 100, 350)
	d, err := NewDeployment(Config{
		Scheme: core.PLC, Levels: l,
		Dist: core.PriorityDistribution{0.5138, 0.0768, 0.4094},
		M:    1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := d.PartSizes()
	total := 0
	for i, s := range sizes {
		total += s
		exact := []float64{513.8, 76.8, 409.4}[i]
		if float64(s) < exact-1 || float64(s) > exact+1 {
			t.Errorf("part %d has %d slots, want ~%g", i, s, exact)
		}
	}
	if total != 1000 {
		t.Errorf("parts sum to %d, want 1000", total)
	}
}

func TestApportionZeroShare(t *testing.T) {
	l := mustLevels(t, 5, 5, 5)
	d, err := NewDeployment(Config{
		Scheme: core.PLC, Levels: l,
		Dist: core.PriorityDistribution{0, 0.6, 0.4},
		M:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := d.PartSizes()
	if sizes[0] != 0 || sizes[1]+sizes[2] != 10 {
		t.Errorf("part sizes %v for zero-share level", sizes)
	}
}

func TestSeededLocationsAgreeAcrossDeployments(t *testing.T) {
	l := mustLevels(t, 2, 2)
	cfg := Config{Scheme: core.SLC, Levels: l, Dist: core.NewUniformDistribution(2), M: 20, Seed: 99}
	a, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if a.Location(i) != b.Location(i) {
			t.Fatal("same seed produced different locations — nodes would disagree")
		}
	}
}

func TestDisseminateRequiresResolution(t *testing.T) {
	l := mustLevels(t, 1, 1)
	d, err := NewDeployment(Config{Scheme: core.SLC, Levels: l, Dist: core.NewUniformDistribution(2), M: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := sensorTransport(t, 1, 60)
	rng := rand.New(rand.NewSource(2))
	if err := d.Disseminate(rng, tr, 0, 0, nil); err == nil {
		t.Error("dissemination before ResolveOwners accepted")
	}
}

// endToEnd runs the full protocol: deploy, resolve, disseminate all source
// blocks, collect from survivors, decode, verify payloads.
func endToEnd(t *testing.T, scheme core.Scheme, tr Transport, cfg Config, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := cfg.Levels.Total()
	sources := make([][]byte, n)
	for i := range sources {
		sources[i] = make([]byte, cfg.PayloadLen)
		rng.Read(sources[i])
	}
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ResolveOwners(tr); err != nil {
		t.Fatal(err)
	}
	for i := range sources {
		origin := rng.Intn(tr.NumNodes())
		if err := d.Disseminate(rng, tr, origin, i, sources[i]); err != nil {
			t.Fatal(err)
		}
	}
	blocks := d.CodedBlocks(nil)
	dec, err := core.NewDecoder(scheme, cfg.Levels, cfg.PayloadLen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect.Run(collect.Shuffle(rng, blocks), dec, collect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("%v end-to-end: decoded %d/%d blocks from %d caches",
			scheme, res.DecodedBlocks, n, len(blocks))
	}
	for i := range sources {
		got, err := dec.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sources[i]) {
			t.Fatalf("%v end-to-end: source %d corrupted", scheme, i)
		}
	}
	if st := d.Stats(); st.Messages == 0 || st.Hops == 0 {
		t.Errorf("no dissemination cost recorded: %+v", st)
	}
}

func TestEndToEndSensorNetwork(t *testing.T) {
	l := mustLevels(t, 5, 10, 15)
	tr := sensorTransport(t, 3, 120)
	for _, scheme := range []core.Scheme{core.SLC, core.PLC} {
		cfg := Config{
			Scheme: scheme, Levels: l, Dist: core.NewUniformDistribution(3),
			M: 90, Seed: 4, PayloadLen: 8,
		}
		endToEnd(t, scheme, tr, cfg, 5)
	}
}

func TestEndToEndChordOverlay(t *testing.T) {
	l := mustLevels(t, 5, 10, 15)
	tr := dhtTransport(t, 6, 150)
	cfg := Config{
		Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(3),
		M: 90, Seed: 7, PayloadLen: 8,
	}
	endToEnd(t, core.PLC, tr, cfg, 8)
}

// TestSupportInvariant verifies the protocol only ever delivers a source
// block to slots whose part may encode it, so every cached coded block
// respects its scheme's support (checked by core.Decoder.Add).
func TestSupportInvariant(t *testing.T) {
	l := mustLevels(t, 4, 4, 4)
	tr := sensorTransport(t, 9, 80)
	for _, scheme := range []core.Scheme{core.RLC, core.SLC, core.PLC} {
		rng := rand.New(rand.NewSource(10))
		d, err := NewDeployment(Config{
			Scheme: scheme, Levels: l, Dist: core.NewUniformDistribution(3),
			M: 30, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ResolveOwners(tr); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < l.Total(); i++ {
			if err := d.Disseminate(rng, tr, rng.Intn(80), i, nil); err != nil {
				t.Fatal(err)
			}
		}
		dec, err := core.NewDecoder(scheme, l, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range d.CodedBlocks(nil) {
			if _, err := dec.Add(b); err != nil {
				t.Fatalf("%v: cached block violates its support: %v", scheme, err)
			}
		}
	}
}

// TestFanoutReducesMessages compares dense dissemination against the
// O(ln N) fanout: messages must drop by roughly the fanout ratio while
// decoding still completes.
func TestFanoutReducesMessages(t *testing.T) {
	l := mustLevels(t, 10, 10) // N = 20
	tr := sensorTransport(t, 12, 100)
	run := func(fanout int) (Stats, bool) {
		rng := rand.New(rand.NewSource(13))
		d, err := NewDeployment(Config{
			Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2),
			M: 80, Seed: 14, Fanout: fanout,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ResolveOwners(tr); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < l.Total(); i++ {
			if err := d.Disseminate(rng, tr, rng.Intn(100), i, nil); err != nil {
				t.Fatal(err)
			}
		}
		dec, err := core.NewDecoder(core.PLC, l, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := collect.Run(collect.Shuffle(rng, d.CodedBlocks(nil)), dec, collect.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return d.Stats(), res.Complete
	}
	dense, denseOK := run(0)
	sparse, sparseOK := run(core.LogSparsity(l.Total()) * 2) // generous fanout
	if !denseOK {
		t.Fatal("dense dissemination failed to decode")
	}
	if !sparseOK {
		t.Fatal("sparse dissemination failed to decode")
	}
	if sparse.Messages >= dense.Messages {
		t.Errorf("fanout did not reduce messages: %d vs %d", sparse.Messages, dense.Messages)
	}
}

// TestTwoChoicesReducesMaxLoad is the Sec. 4 load-balancing claim.
func TestTwoChoicesReducesMaxLoad(t *testing.T) {
	l := mustLevels(t, 2, 2)
	tr := sensorTransport(t, 15, 100)
	maxLoad := func(two bool) int {
		d, err := NewDeployment(Config{
			Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(2),
			M: 400, Seed: 16, TwoChoices: two,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ResolveOwners(tr); err != nil {
			t.Fatal(err)
		}
		return d.MaxLoad()
	}
	one, two := maxLoad(false), maxLoad(true)
	if two > one {
		t.Errorf("two choices worsened max load: %d vs %d", two, one)
	}
	if two == 0 || one == 0 {
		t.Error("no load recorded")
	}
}

// TestPartialRecoveryUnderFailures kills half the sensor nodes and checks
// that PLC still recovers the most important level while full recovery is
// impossible — the paper's core differentiated-persistence story.
func TestPartialRecoveryUnderFailures(t *testing.T) {
	l := mustLevels(t, 4, 8, 28) // N = 40
	tr := sensorTransport(t, 17, 150)
	rng := rand.New(rand.NewSource(18))
	d, err := NewDeployment(Config{
		Scheme: core.PLC, Levels: l,
		// Favor the most important level heavily.
		Dist: core.PriorityDistribution{0.5, 0.25, 0.25},
		M:    120, Seed: 19, PayloadLen: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ResolveOwners(tr); err != nil {
		t.Fatal(err)
	}
	sources := make([][]byte, l.Total())
	for i := range sources {
		sources[i] = make([]byte, 4)
		rng.Read(sources[i])
		if err := d.Disseminate(rng, tr, rng.Intn(150), i, sources[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Kill 60% of the nodes.
	dead := make(map[int]bool)
	for i := 0; i < 150; i++ {
		if rng.Float64() < 0.6 {
			dead[i] = true
		}
	}
	blocks := d.CodedBlocks(func(node int) bool { return !dead[node] })
	dec, err := core.NewDecoder(core.PLC, l, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect.Run(collect.Shuffle(rng, blocks), dec, collect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodedLevels < 1 {
		t.Fatalf("level 0 lost despite priority protection (%d caches survived)", len(blocks))
	}
	for i := 0; i < l.Size(0); i++ {
		got, err := dec.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sources[i]) {
			t.Fatalf("critical source %d corrupted", i)
		}
	}
}

func TestTransportConstructorsReject(t *testing.T) {
	if _, err := NewGeoTransport(nil, 5); err == nil {
		t.Error("nil router accepted")
	}
	if _, err := NewDHTTransport(nil); err == nil {
		t.Error("nil ring accepted")
	}
}

func TestDisseminateValidation(t *testing.T) {
	l := mustLevels(t, 1, 1)
	tr := sensorTransport(t, 20, 60)
	d, err := NewDeployment(Config{
		Scheme: core.SLC, Levels: l, Dist: core.NewUniformDistribution(2),
		M: 4, Seed: 21, PayloadLen: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ResolveOwners(tr); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	if err := d.Disseminate(rng, tr, 0, 5, []byte{1, 2}); err == nil {
		t.Error("out-of-range block index accepted")
	}
	if err := d.Disseminate(rng, tr, 0, 0, []byte{1}); err == nil {
		t.Error("short payload accepted")
	}
}

// TestCodedBlocksStaySparse is the no-dense-round-trip regression test
// for the encode path: every block a deployment emits must carry its
// coefficients in the sparse representation (canonical form), never a
// densified vector — and must survive the wire without densifying.
func TestCodedBlocksStaySparse(t *testing.T) {
	l := mustLevels(t, 8, 8, 8)
	tr := sensorTransport(t, 31, 80)
	cfg := Config{
		Scheme: core.PLC, Levels: l, Dist: core.NewUniformDistribution(3),
		M: 60, Seed: 32, Fanout: 4, PayloadLen: 6,
	}
	rng := rand.New(rand.NewSource(33))
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ResolveOwners(tr); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, cfg.PayloadLen)
	for i := 0; i < l.Total(); i++ {
		rng.Read(payload)
		if err := d.Disseminate(rng, tr, rng.Intn(tr.NumNodes()), i, payload); err != nil {
			t.Fatal(err)
		}
	}
	blocks := d.CodedBlocks(nil)
	if len(blocks) == 0 {
		t.Fatal("no coded blocks emitted")
	}
	for i, b := range blocks {
		if !b.IsSparse() || b.Coeff != nil {
			t.Fatalf("block %d emitted dense — the encode path densified", i)
		}
		if err := b.SpCoeff.Validate(); err != nil {
			t.Fatalf("block %d not canonical: %v", i, err)
		}
		// With fanout 4 over 24 source blocks, a slot's support stays far
		// below dense.
		if b.SpCoeff.NNZ() >= l.Total() {
			t.Fatalf("block %d has %d nonzeros — not sparse", i, b.SpCoeff.NNZ())
		}
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back core.CodedBlock
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if !back.IsSparse() {
			t.Fatalf("block %d densified crossing the wire", i)
		}
	}
}

func TestFacadeSensorProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := geom.ConnectedUnitDisk(rng, 80, 0.18)
	if err != nil {
		t.Fatal(err)
	}
	router, err := gpsr.New(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewGeoTransport(router, 80)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := core.NewLevels(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(Config{
		Scheme: core.PLC, Levels: levels, Dist: core.NewUniformDistribution(2),
		M: 24, Seed: 3, PayloadLen: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.ResolveOwners(tr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < levels.Total(); i++ {
		payload := make([]byte, 4)
		rng.Read(payload)
		if err := dep.Disseminate(rng, tr, rng.Intn(80), i, payload); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := core.NewDecoder(core.PLC, levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect.Run(collect.Shuffle(rng, dep.CodedBlocks(nil)), dec, collect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Errorf("sensor protocol round trip incomplete: %+v", res)
	}
}
