package netsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestLifetimesStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const mean = 40.0
	ls, err := Lifetimes(rng, 20000, mean)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range ls {
		if l < 0 {
			t.Fatal("negative lifetime")
		}
		sum += l
	}
	got := sum / float64(len(ls))
	if math.Abs(got-mean) > 1.5 {
		t.Errorf("empirical mean %g, want %g±1.5", got, mean)
	}
	if _, err := Lifetimes(rng, 5, 0); err == nil {
		t.Error("zero mean accepted")
	}
}

func TestFailFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	idx, err := FailFraction(rng, 100, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 30 {
		t.Fatalf("killed %d nodes, want 30", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("bad victim %d", i)
		}
		seen[i] = true
	}
	if _, err := FailFraction(rng, 10, -0.1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := FailFraction(rng, 10, 1.1); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := FailFraction(rng, 10, math.NaN()); err == nil {
		t.Error("NaN fraction accepted")
	}
	all, err := FailFraction(rng, 10, 1)
	if err != nil || len(all) != 10 {
		t.Errorf("full kill = %v, %v", all, err)
	}
}

func TestFailRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.5, Y: 0.5}, {X: 0.9, Y: 0.9}}
	victims, err := FailRegion(rng, pos, 2) // radius covers the whole square
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 3 {
		t.Errorf("full-coverage outage killed %d/3", len(victims))
	}
	none, err := FailRegion(rng, pos, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) > 1 {
		t.Errorf("zero-radius outage killed %d nodes", len(none))
	}
	if _, err := FailRegion(rng, pos, -1); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestFailRegionIsLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pos := make([]geom.Point, 500)
	for i := range pos {
		pos[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	victims, err := FailRegion(rng, pos, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) == 0 {
		t.Skip("epicenter landed in an empty corner")
	}
	// Victims must be mutually close: any two within 2*radius.
	for _, a := range victims {
		for _, b := range victims {
			if pos[a].Dist(pos[b]) > 0.4+1e-12 {
				t.Fatalf("victims %d and %d are %.3f apart", a, b, pos[a].Dist(pos[b]))
			}
		}
	}
}
