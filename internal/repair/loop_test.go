package repair

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestNextWait(t *testing.T) {
	const iv = 100 * time.Millisecond
	cases := []struct {
		failures int
		want     time.Duration
	}{
		{0, iv}, // success
		{1, iv}, // the first failure retries at the normal pace
		{2, 2 * iv},
		{3, 4 * iv},
		{4, 8 * iv},
		{5, 16 * iv},
		{6, 16 * iv}, // capped at backoffCap x interval
		{60, 16 * iv},
	}
	for _, c := range cases {
		if got := nextWait(iv, c.failures); got != c.want {
			t.Errorf("nextWait(%v, %d) = %v, want %v", iv, c.failures, got, c.want)
		}
	}
}

func TestJitteredBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const w = time.Second
	lo, hi := w, time.Duration(0)
	for i := 0; i < 10000; i++ {
		got := jittered(rng, w)
		if got < w*8/10 || got > w {
			t.Fatalf("jittered(%v) = %v, outside [0.8w, w]", w, got)
		}
		lo, hi = min(lo, got), max(hi, got)
	}
	if lo > w*81/100 || hi < w*99/100 {
		t.Fatalf("jitter does not spread: [%v, %v] over 10000 draws", lo, hi)
	}
}

// TestLoopStopBeatsKick pins the select fix without sleeping: a Stop and
// a Kick issued while a round is in flight must not start another round
// once it returns — before the fix select chose between the closed stop
// channel and the pending kick at random.
func TestLoopStopBeatsKick(t *testing.T) {
	for i := 0; i < 50; i++ {
		entered, release := make(chan struct{}, 4), make(chan struct{})
		l := NewLoop("test", nil, time.Hour, time.Minute, 1, func(context.Context) (*int, error) {
			entered <- struct{}{}
			<-release
			return new(int), nil
		})
		l.Start()
		<-entered
		stopped := make(chan error, 1)
		go func() { stopped <- l.Stop(context.Background()) }()
		<-l.stop // Stop has been issued
		l.Kick()
		close(release)
		if err := <-stopped; err != nil {
			t.Fatal(err)
		}
		if got := l.Rounds(); got != 1 {
			t.Fatalf("iteration %d: %d rounds ran, want exactly 1", i, got)
		}
	}
}

// TestLoopKeepsLastReport checks the report contract of a round
// function: nil (failed before having a report) leaves LastReport alone.
func TestLoopKeepsLastReport(t *testing.T) {
	next, fail := 7, false
	l := NewLoop("test", nil, time.Hour, time.Minute, 1, func(context.Context) (*int, error) {
		if fail {
			return nil, errors.New("no report")
		}
		return &next, nil
	})
	ctx := context.Background()
	if got, err := l.RunOnce(ctx); got != 7 || err != nil {
		t.Fatalf("RunOnce = %d, %v", got, err)
	}
	fail = true
	if got, err := l.RunOnce(ctx); got != 0 || err == nil {
		t.Fatalf("failed RunOnce = %d, %v, want 0 and an error", got, err)
	}
	if got := l.LastReport(); got != 7 {
		t.Fatalf("LastReport = %d after a reportless round, want 7", got)
	}
	if l.Rounds() != 2 {
		t.Fatalf("Rounds = %d, want 2", l.Rounds())
	}
}
