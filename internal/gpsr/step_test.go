package gpsr

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestStepValidation(t *testing.T) {
	r, _ := denseRouter(t, 40, 50, 0.3)
	dst := geom.Point{X: 0.5, Y: 0.5}
	if _, err := r.Step(-1, dst, PacketState{}); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := r.Step(99, dst, PacketState{}); err == nil {
		t.Error("out-of-range node accepted")
	}
	alive := make([]bool, 50)
	for i := range alive {
		alive[i] = i != 7
	}
	if err := r.SetAlive(alive); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Step(7, dst, PacketState{}); err == nil {
		t.Error("dead node accepted")
	}
}

// TestStepDrivenForwardingMatchesRoute is the refactor's contract: driving
// packets hop by hop through Step — what a message-passing deployment
// would do — must reproduce Route's path bit for bit, because Route is
// defined as the centralized wrapper over Step.
func TestStepDrivenForwardingMatchesRoute(t *testing.T) {
	r, g := denseRouter(t, 41, 250, 0.13)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		src := rng.Intn(g.Len())
		dst := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		want, err := r.Route(src, dst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Re-derive the path one Step at a time.
		got := []int{src}
		cur := src
		var st PacketState
		for hop := 0; hop < 10*g.Len(); hop++ {
			res, err := r.Step(cur, dst, st)
			if err != nil {
				t.Fatalf("trial %d hop %d: %v", trial, hop, err)
			}
			if res.Arrived {
				if res.Home != cur {
					t.Fatalf("trial %d: Home %d != current node %d", trial, res.Home, cur)
				}
				break
			}
			got = append(got, res.Next)
			cur = res.Next
			st = res.State
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: Step path length %d, Route %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: paths diverge at hop %d: %v vs %v", trial, i, got, want)
			}
		}
	}
}

// TestStepStateIsSelfContained: routing must not depend on any state other
// than the packet header — replaying a prefix of hops from a copied state
// must continue identically (nodes are stateless).
func TestStepStateIsSelfContained(t *testing.T) {
	r, g := denseRouter(t, 43, 200, 0.14)
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		src := rng.Intn(g.Len())
		dst := geom.Point{X: rng.Float64(), Y: rng.Float64()}

		// Walk 5 hops, snapshotting the state mid-route.
		cur := src
		var st PacketState
		type snap struct {
			cur int
			st  PacketState
		}
		var snaps []snap
		for hop := 0; hop < 5; hop++ {
			snaps = append(snaps, snap{cur, st})
			res, err := r.Step(cur, dst, st)
			if err != nil {
				t.Fatal(err)
			}
			if res.Arrived {
				break
			}
			cur, st = res.Next, res.State
		}
		// Resume from each snapshot: the continuation must terminate and at
		// the same home node as the full route.
		full, err := r.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		wantHome := full[len(full)-1]
		for _, s := range snaps {
			cur, st := s.cur, s.st
			var home int
			for hop := 0; hop < 10*g.Len(); hop++ {
				res, err := r.Step(cur, dst, st)
				if err != nil {
					t.Fatal(err)
				}
				if res.Arrived {
					home = res.Home
					break
				}
				cur, st = res.Next, res.State
			}
			if home != wantHome {
				t.Fatalf("trial %d: resumed route delivered to %d, want %d", trial, home, wantHome)
			}
		}
	}
}

// TestStepGreedyStateStaysZero: pure greedy hops carry no state, so
// intermediate nodes need nothing beyond the destination.
func TestStepGreedyStateStaysZero(t *testing.T) {
	r, g := denseRouter(t, 45, 150, 0.2)
	rng := rand.New(rand.NewSource(46))
	zero := PacketState{}
	for trial := 0; trial < 50; trial++ {
		src := rng.Intn(g.Len())
		dst := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		cur := src
		st := zero
		for hop := 0; hop < g.Len(); hop++ {
			res, err := r.Step(cur, dst, st)
			if err != nil {
				t.Fatal(err)
			}
			if res.Arrived {
				break
			}
			if res.State.Mode == GreedyMode && res.State != zero {
				t.Fatalf("greedy hop produced non-zero state: %+v", res.State)
			}
			cur, st = res.Next, res.State
		}
	}
}
