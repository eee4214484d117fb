package prlc

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// mustDecoder is a fresh PLC decoder for a test collection.
func mustDecoder(tb testing.TB, levels *Levels, payloadLen int) *Decoder {
	tb.Helper()
	dec, err := NewDecoder(PLC, levels, payloadLen)
	if err != nil {
		tb.Fatal(err)
	}
	return dec
}

// TestFacadeRoundTrip exercises the coding layer through the public API
// only: encode three levels of payloads, lose the stream early, and
// recover the most important level first.
func TestFacadeRoundTrip(t *testing.T) {
	levels, err := NewLevels(2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 16)
		rng.Read(sources[i])
	}
	enc, err := NewEncoder(PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(PLC, levels, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := PriorityDistribution{0.5, 0.3, 0.2}
	for !dec.Complete() {
		blocks, err := enc.EncodeBatch(rng, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Add(blocks[0]); err != nil {
			t.Fatal(err)
		}
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
}

func TestFacadeAnalysis(t *testing.T) {
	levels, err := UniformLevels(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ExpectedDecodedLevels(PLC, levels, UniformDistribution(3), 60)
	if err != nil {
		t.Fatal(err)
	}
	if r.EX < 2.5 {
		t.Errorf("E(X) at 2N blocks = %g, want near 3", r.EX)
	}
	curve, err := analysis.Curve(SLC, levels, UniformDistribution(3), []int{0, 30, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 || curve[0].EX != 0 {
		t.Errorf("curve = %+v", curve)
	}
}

func TestFacadeDesign(t *testing.T) {
	levels, err := NewLevels(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := DesignDistribution(DesignProblem{
		Scheme:   PLC,
		Levels:   levels,
		Decoding: []DecodingConstraint{{M: 6, MinLevels: 1}},
	}, DesignOptions{Seed: 1, MaxEvals: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Errorf("simple design problem infeasible: %+v", sol)
	}
}

func TestFacadeParseScheme(t *testing.T) {
	s, err := core.ParseScheme("PLC")
	if err != nil || s != PLC {
		t.Errorf("ParseScheme = %v, %v", s, err)
	}
}

func TestFacadeSensorProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	router, _, err := NewSensorNetwork(rng, 80, 0.18)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewGeoTransport(router, 80)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := NewLevels(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(DeployConfig{
		Scheme: PLC, Levels: levels, Dist: UniformDistribution(2),
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
	res, err := Collect(rng, mustDecoder(t, levels, 4), dep.CodedBlocks(nil), CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Errorf("facade protocol round trip incomplete: %+v", res)
	}
}

func TestFacadeChordOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ring, err := NewChordOverlay(rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDHTTransport(ring); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSparsityHelpers(t *testing.T) {
	if LogSparsity(1000) < 2 {
		t.Error("LogSparsity(1000) suspiciously small")
	}
	levels, err := UniformLevels(2, 50)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(PLC, levels, nil, core.WithSparsity(LogSparsity(100)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b, err := enc.Encode(rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsSparse() {
		t.Fatal("sparse encoder emitted a dense block")
	}
	nnz := 0
	for _, c := range b.DenseCoeff() {
		if c != 0 {
			nnz++
		}
	}
	if nnz != LogSparsity(100) {
		t.Errorf("sparse block has %d nonzeros, want %d", nnz, LogSparsity(100))
	}
}
