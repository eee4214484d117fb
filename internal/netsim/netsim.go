// Package netsim provides the node-failure processes for the persistence
// experiments: nodes disseminate coded blocks, fail unpredictably —
// independently, as a random fraction, or as a correlated region — and a
// collector later retrieves what survived (Sec. 2's network model).
package netsim

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
)

// Lifetimes draws node lifetimes from an exponential distribution with the
// given mean — the standard memoryless churn model for both sensor
// batteries and P2P session lengths.
func Lifetimes(rng *rand.Rand, n int, mean float64) ([]float64, error) {
	if mean <= 0 {
		return nil, fmt.Errorf("netsim: mean lifetime %g, want > 0", mean)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.ExpFloat64() * mean
	}
	return out, nil
}

// FailFraction returns a deterministic subset of f·n node indices to kill,
// drawn without replacement — the paper's "random subset of existing
// nodes" failure snapshot.
func FailFraction(rng *rand.Rand, n int, f float64) ([]int, error) {
	if !(f >= 0 && f <= 1) {
		return nil, fmt.Errorf("netsim: failure fraction %g outside [0, 1]", f)
	}
	k := int(f * float64(n))
	return rng.Perm(n)[:k], nil
}

// FailRegion models a geographically correlated outage — a storm, fire or
// power cut: every node within the given radius of a uniformly random
// epicenter fails. It returns the victim indices. Correlated failures are
// the hard case for geographic pre-distribution, since they wipe out
// whole neighborhoods of cache locations at once.
func FailRegion(rng *rand.Rand, pos []geom.Point, radius float64) ([]int, error) {
	if radius < 0 {
		return nil, fmt.Errorf("netsim: negative outage radius %g", radius)
	}
	center := geom.Point{X: rng.Float64(), Y: rng.Float64()}
	r2 := radius * radius
	var victims []int
	for i, p := range pos {
		if p.Dist2(center) <= r2 {
			victims = append(victims, i)
		}
	}
	return victims, nil
}
