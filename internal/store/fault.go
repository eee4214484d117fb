package store

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// FaultConfig parameterizes a FaultDialer. All probabilities are in
// [0, 1] and drawn from one seeded generator, so a test that performs
// its operations in a fixed order sees a fixed fault schedule.
type FaultConfig struct {
	// Seed seeds the fault schedule (0 means 1).
	Seed int64
	// DialFailProb makes a dial attempt fail ("connection refused").
	DialFailProb float64
	// CorruptProb flips one byte per written frame, past the length
	// prefix so the receiver's CRC (not a stalled read) catches it.
	CorruptProb float64
	// DelayProb delays a write by a uniform duration in (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds injected write delays. Default 20ms.
	MaxDelay time.Duration
}

// FaultDialer wraps a Dialer with seedable fault injection: failed
// dials, per-frame byte corruption, write delays, and addr-level
// partitions. It is the robustness tests' network.
type FaultDialer struct {
	base Dialer
	cfg  FaultConfig

	mu    sync.Mutex
	rng   *rand.Rand
	parts map[string]struct{}

	// Counters for assertions and reporting.
	dialsFailed  int
	framesMauled int
}

// NewFaultDialer wraps base (nil for a plain net.Dialer).
func NewFaultDialer(base Dialer, cfg FaultConfig) *FaultDialer {
	if base == nil {
		base = &net.Dialer{}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	return &FaultDialer{
		base:  base,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		parts: make(map[string]struct{}),
	}
}

// Partition makes every dial to addr fail until Heal.
func (f *FaultDialer) Partition(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.parts[addr] = struct{}{}
}

// Heal removes a partition.
func (f *FaultDialer) Heal(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.parts, addr)
}

// SetCorruptProb changes the per-frame corruption probability live. The
// chaos controller uses these setters to turn the seeded fault patterns
// into wall-clock fault windows: a corruption window is SetCorruptProb(p)
// at open and SetCorruptProb(0) at close, against the same dialer the
// load generator's clients dial through.
func (f *FaultDialer) SetCorruptProb(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.CorruptProb = p
}

// SetDelayProb changes the write-delay probability live.
func (f *FaultDialer) SetDelayProb(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.DelayProb = p
}

// Injected returns how many dials were failed and frames corrupted.
func (f *FaultDialer) Injected() (dialsFailed, framesCorrupted int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dialsFailed, f.framesMauled
}

// DialContext applies partition and dial-failure faults, then wraps the
// connection so writes can be delayed or corrupted.
func (f *FaultDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	f.mu.Lock()
	_, cut := f.parts[addr]
	fail := !cut && f.cfg.DialFailProb > 0 && f.rng.Float64() < f.cfg.DialFailProb
	if cut || fail {
		f.dialsFailed++
	}
	f.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("fault: %s is partitioned", addr)
	}
	if fail {
		return nil, fmt.Errorf("fault: injected dial failure to %s", addr)
	}
	conn, err := f.base.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: conn, f: f, addr: addr}, nil
}

type faultConn struct {
	net.Conn
	f    *FaultDialer
	addr string
}

func (c *faultConn) Write(p []byte) (int, error) {
	f := c.f
	f.mu.Lock()
	// A partition severs live flows too, not just future dials —
	// otherwise a pooled connection would tunnel through the outage.
	if _, cut := f.parts[c.addr]; cut {
		f.mu.Unlock()
		return 0, fmt.Errorf("fault: %s is partitioned", c.addr)
	}
	var delay time.Duration
	if f.cfg.DelayProb > 0 && f.rng.Float64() < f.cfg.DelayProb {
		delay = time.Duration(1 + f.rng.Int63n(int64(f.cfg.MaxDelay)))
	}
	corruptAt := -1
	// A frame write is one Write call (see writeFrame); flipping a byte
	// at offset >= 4 corrupts op, CRC, request id or body — always
	// CRC-detectable, never the length prefix (which would stall the
	// reader instead).
	if f.cfg.CorruptProb > 0 && len(p) > frameHeader && f.rng.Float64() < f.cfg.CorruptProb {
		corruptAt = 4 + f.rng.Intn(len(p)-4)
		f.framesMauled++
	}
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if corruptAt >= 0 {
		mauled := append([]byte(nil), p...)
		mauled[corruptAt] ^= 0xA5
		n, err := c.Conn.Write(mauled)
		if n > len(p) {
			n = len(p)
		}
		return n, err
	}
	return c.Conn.Write(p)
}
