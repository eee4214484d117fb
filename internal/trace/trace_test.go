package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
)

func sampleField(t testing.TB, seed int64, res int) (*Field, []float64) {
	t.Helper()
	f, err := NewField(rand.New(rand.NewSource(seed)), 6)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := f.SampleGrid(res)
	if err != nil {
		t.Fatal(err)
	}
	return f, grid
}

func TestNewFieldValidation(t *testing.T) {
	if _, err := NewField(rand.New(rand.NewSource(1)), 0); err == nil {
		t.Error("zero bumps accepted")
	}
}

func TestFieldIsSmoothAndPositive(t *testing.T) {
	f, _ := sampleField(t, 1, 4)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		v := f.At(p)
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("field value %g at %v", v, p)
		}
		// Smoothness: a tiny step moves the value only slightly.
		q := geom.Point{X: p.X + 1e-4, Y: p.Y}
		if math.Abs(f.At(q)-v) > 0.01 {
			t.Fatalf("field jumps at %v", p)
		}
	}
}

func TestSampleGridValidation(t *testing.T) {
	f, _ := sampleField(t, 3, 2)
	if _, err := f.SampleGrid(0); err == nil {
		t.Error("resolution 0 accepted")
	}
}

func TestBuildPyramidValidation(t *testing.T) {
	if _, err := BuildPyramid(make([]float64, 9), 3); err == nil {
		t.Error("non-power-of-two resolution accepted")
	}
	if _, err := BuildPyramid(make([]float64, 5), 4); err == nil {
		t.Error("wrong grid size accepted")
	}
	if _, err := BuildPyramid(nil, 0); err == nil {
		t.Error("zero resolution accepted")
	}
}

func TestPyramidPerfectReconstruction(t *testing.T) {
	_, grid := sampleField(t, 4, 16)
	p, err := BuildPyramid(grid, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Levels() != 5 || p.Res() != 16 {
		t.Fatalf("pyramid levels=%d res=%d", p.Levels(), p.Res())
	}
	full, err := p.Reconstruct(p.Levels() - 1)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := RMSE(full, grid)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 1e-12 {
		t.Errorf("full reconstruction RMSE %g, want 0", rmse)
	}
	// upTo beyond the top is clamped.
	same, err := p.Reconstruct(99)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := RMSE(same, grid); r > 1e-12 {
		t.Errorf("clamped reconstruction RMSE %g", r)
	}
	if _, err := p.Reconstruct(-1); err == nil {
		t.Error("negative level accepted")
	}
}

// TestPyramidRMSEDecreases is the multi-resolution property the priority
// model buys: each additional recovered level refines the approximation.
func TestPyramidRMSEDecreases(t *testing.T) {
	_, grid := sampleField(t, 5, 32)
	p, err := BuildPyramid(grid, 32)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for upTo := 0; upTo < p.Levels(); upTo++ {
		approx, err := p.Reconstruct(upTo)
		if err != nil {
			t.Fatal(err)
		}
		rmse, err := RMSE(approx, grid)
		if err != nil {
			t.Fatal(err)
		}
		if rmse > prev+1e-12 {
			t.Errorf("RMSE increased at level %d: %g -> %g", upTo, prev, rmse)
		}
		prev = rmse
	}
	if prev > 1e-12 {
		t.Errorf("final RMSE %g, want 0", prev)
	}
}

// TestPyramidLevelZeroIsMean: the coarsest level must equal the grid mean.
func TestPyramidLevelZeroIsMean(t *testing.T) {
	_, grid := sampleField(t, 6, 8)
	p, err := BuildPyramid(grid, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range grid {
		sum += v
	}
	mean := sum / float64(len(grid))
	coarse, err := p.Reconstruct(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range coarse {
		if math.Abs(v-mean) > 1e-12 {
			t.Fatalf("level-0 reconstruction %g, want mean %g", v, mean)
		}
	}
}

func TestToBlocksValidation(t *testing.T) {
	_, grid := sampleField(t, 7, 4)
	p, err := BuildPyramid(grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.ToBlocks(0); err == nil {
		t.Error("payload 0 accepted")
	}
	if _, _, err := p.ToBlocks(12); err == nil {
		t.Error("non-multiple-of-8 payload accepted")
	}
}

func TestBlocksRoundTrip(t *testing.T) {
	_, grid := sampleField(t, 8, 16)
	p, err := BuildPyramid(grid, 16)
	if err != nil {
		t.Fatal(err)
	}
	blocks, layout, err := p.ToBlocks(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(layout.LevelSizes) != p.Levels() {
		t.Fatalf("layout has %d levels, want %d", len(layout.LevelSizes), p.Levels())
	}
	total := 0
	for _, s := range layout.LevelSizes {
		total += s
	}
	if total != len(blocks) {
		t.Fatalf("layout wants %d blocks, got %d", total, len(blocks))
	}
	rebuilt, levels, err := FromBlocks(blocks, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	if levels != p.Levels() {
		t.Fatalf("rebuilt %d levels, want %d", levels, p.Levels())
	}
	full, err := rebuilt.Reconstruct(levels - 1)
	if err != nil {
		t.Fatal(err)
	}
	if rmse, _ := RMSE(full, grid); rmse > 1e-12 {
		t.Errorf("round-trip RMSE %g", rmse)
	}
}

func TestFromBlocksPartialPrefix(t *testing.T) {
	_, grid := sampleField(t, 9, 16)
	p, err := BuildPyramid(grid, 16)
	if err != nil {
		t.Fatal(err)
	}
	blocks, layout, err := p.ToBlocks(16)
	if err != nil {
		t.Fatal(err)
	}
	// Nil out everything past the first three pyramid levels.
	keep := layout.LevelSizes[0] + layout.LevelSizes[1] + layout.LevelSizes[2]
	for i := keep; i < len(blocks); i++ {
		blocks[i] = nil
	}
	rebuilt, levels, err := FromBlocks(blocks, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	if levels != 3 {
		t.Fatalf("rebuilt %d levels, want 3", levels)
	}
	approx, err := rebuilt.Reconstruct(levels - 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Reconstruct(2)
	if err != nil {
		t.Fatal(err)
	}
	if rmse, _ := RMSE(approx, want); rmse > 1e-12 {
		t.Errorf("partial reconstruction differs from direct truncation: %g", rmse)
	}
}

func TestFromBlocksErrors(t *testing.T) {
	layout := BlockLayout{LevelSizes: []int{1, 1, 4}, PayloadLen: 8}
	if _, _, err := FromBlocks(nil, layout, 4); err == nil {
		t.Error("too few blocks accepted")
	}
	if _, _, err := FromBlocks(make([][]byte, 6), BlockLayout{LevelSizes: []int{1}, PayloadLen: 8}, 4); err == nil {
		t.Error("wrong level count accepted")
	}
	if _, _, err := FromBlocks(make([][]byte, 6), layout, 3); err == nil {
		t.Error("bad resolution accepted")
	}
	if _, _, err := FromBlocks(make([][]byte, 6), BlockLayout{LevelSizes: []int{1, 1, 4}, PayloadLen: 0}, 4); err == nil {
		t.Error("bad payload length accepted")
	}
	// All-nil blocks: nothing decodable.
	if _, _, err := FromBlocks(make([][]byte, 6), layout, 4); err == nil {
		t.Error("no decodable level accepted")
	}
}

// TestEndToEndWithPLC ties the pyramid to the codec: encode the blocks
// under PLC, decode partially, and verify the recovered prefix rebuilds
// the corresponding approximation.
func TestEndToEndWithPLC(t *testing.T) {
	_, grid := sampleField(t, 10, 16)
	p, err := BuildPyramid(grid, 16)
	if err != nil {
		t.Fatal(err)
	}
	blocks, layout, err := p.ToBlocks(16)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := core.NewLevels(layout.LevelSizes...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	enc, err := core.NewEncoder(core.PLC, levels, blocks)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewDecoder(core.PLC, levels, layout.PayloadLen)
	if err != nil {
		t.Fatal(err)
	}
	// Feed coded blocks until at least 3 pyramid levels are decodable.
	dist := core.PriorityDistribution{0.15, 0.15, 0.2, 0.25, 0.25}
	for dec.DecodedLevels() < 3 {
		cb, err := enc.EncodeBatch(rng, dist, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Add(cb[0]); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt, got, err := FromBlocks(dec.Sources(), layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got < 3 {
		t.Fatalf("rebuilt %d levels, want >= 3", got)
	}
	approx, err := rebuilt.Reconstruct(got - 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Reconstruct(got - 1)
	if err != nil {
		t.Fatal(err)
	}
	if rmse, _ := RMSE(approx, want); rmse > 1e-12 {
		t.Errorf("decoded approximation differs: RMSE %g", rmse)
	}
}

func TestRMSEValidation(t *testing.T) {
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if v, err := RMSE(nil, nil); err != nil || v != 0 {
		t.Errorf("empty RMSE = %g, %v", v, err)
	}
}

func TestQuickPyramidMeanPreserved(t *testing.T) {
	// The pyramid's coarsest coefficient is always the grid mean, for any
	// grid (linearity of the averaging chain).
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		res := []int{2, 4, 8}[rng.Intn(3)]
		grid := make([]float64, res*res)
		sum := 0.0
		for i := range grid {
			grid[i] = rng.NormFloat64()
			sum += grid[i]
		}
		p, err := BuildPyramid(grid, res)
		if err != nil {
			return false
		}
		return math.Abs(p.levels[0][0]-sum/float64(len(grid))) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestFacadeSensorFieldPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	field, err := NewField(rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := field.SampleGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	pyr, err := BuildPyramid(grid, 8)
	if err != nil {
		t.Fatal(err)
	}
	blocks, layout, err := pyr.ToBlocks(16)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, n, err := FromBlocks(blocks, layout, 8)
	if err != nil {
		t.Fatal(err)
	}
	full, err := rebuilt.Reconstruct(n - 1)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := RMSE(full, grid)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 1e-12 {
		t.Errorf("pyramid round trip RMSE %g", rmse)
	}
}
