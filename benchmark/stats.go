package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects one timing series. Safe for concurrent add; adding
// to a nil series does nothing.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.v = append(s.v, v)
	s.mu.Unlock()
}

// addSince records the milliseconds elapsed since t0.
func (s *samples) addSince(t0 time.Time) { s.add(ms(time.Since(t0))) }

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the p-quantile (0..1) of an ascending slice by the
// nearest-rank rule; 0 for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailQuantile returns the requested tail percentile when at least ten
// samples lie beyond it, otherwise the highest of p95, p90, p75 that
// has ten beyond it (the median when none has). used names the
// percentile actually reported.
func tailQuantile(sorted []float64, want float64) (value, used float64) {
	for _, p := range []float64{want, 0.95, 0.90, 0.75} {
		if p <= want && float64(len(sorted))*(1-p) >= 10 {
			return quantile(sorted, p), p
		}
	}
	return quantile(sorted, 0.5), 0.5
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so the
// spread this program prints is the spread the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(m)
}
