package mover

import (
	"context"
	"sync"
	"time"
)

// throttle is a token-bucket byte-rate limiter shared by every transfer
// worker: each collected or placed wire byte spends one token, so the
// mover's aggregate network footprint stays under Config.RateLimit no
// matter how many objects move concurrently. A nil throttle admits
// everything immediately.
type throttle struct {
	rate  float64 // tokens (bytes) refilled per second
	burst float64 // bucket capacity

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func newThrottle(rate, burst int64) *throttle {
	if rate <= 0 {
		return nil
	}
	burst = max(burst, rate) // at least one second of headroom
	return &throttle{
		rate:   float64(rate),
		burst:  float64(burst),
		tokens: float64(burst), // start full: the first batch is never delayed
		last:   time.Now(),
	}
}

// wait blocks until n bytes of budget are available (or ctx expires),
// and returns how long it slept. Requests larger than the burst are
// admitted once the bucket is full — they overdraw it rather than
// deadlock, so one giant block still moves, just slowly.
func (t *throttle) wait(ctx context.Context, n int) (time.Duration, error) {
	if t == nil || n <= 0 {
		return 0, nil
	}
	need := float64(n)
	if need > t.burst {
		need = t.burst
	}
	var slept time.Duration
	for {
		t.mu.Lock()
		now := time.Now()
		t.tokens += now.Sub(t.last).Seconds() * t.rate
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
		t.last = now
		if t.tokens >= need {
			t.tokens -= float64(n) // spend the true cost, overdrawing if oversized
			t.mu.Unlock()
			return slept, nil
		}
		gap := time.Duration((need - t.tokens) / t.rate * float64(time.Second))
		t.mu.Unlock()
		if gap < time.Millisecond {
			gap = time.Millisecond
		}
		timer := time.NewTimer(gap)
		select {
		case <-ctx.Done():
			timer.Stop()
			return slept, ctx.Err()
		case <-timer.C:
			slept += gap
		}
	}
}
