package repair

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
)

// This file is the tentpole acceptance test: a replicated deployment
// survives repeated kill/heal churn because — and only because — the
// repair daemon keeps regenerating redundancy, most critical level
// first, without ever decoding.

const churnRounds = 6 // ">= 5 rounds" per the acceptance criteria

// churnTrace fingerprints one full churn scenario so two runs with the
// same seed can be compared byte for byte.
type churnTrace struct {
	lines []string
}

func (tr *churnTrace) addf(format string, a ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, a...))
}

func (tr *churnTrace) digest() string {
	h := sha256.New()
	for _, l := range tr.lines {
		fmt.Fprintln(h, l)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runChurnScenario drives churnRounds kill/heal rounds against a
// 3-replica fleet with the daemon's RunOnce driven synchronously, one
// round at a time, which makes the scenario bit-reproducible. After
// every single repair
// round the critical level must decode from a plain client collect with
// zero client-visible errors; after convergence the whole code must.
func runChurnScenario(t *testing.T, seed int64) string {
	t.Helper()
	levels, sources, blocks, targets := testCode(t, seed, 24)
	f := newFleet(t, 3, levels.Count())
	cfg := f.seed(levels, blocks, targets)
	cfg.Seed = seed
	// A small budget forces convergence to take several rounds, so the
	// priority order of partial repair is observable, not vacuous.
	cfg.BlockBudget = 3
	d, err := New(f.repl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	trace := &churnTrace{}

	// The random level draw may not give every level full rank; repair
	// preserves what the provisioning could decode, it cannot add rank.
	baseline := decodeAll(t, levels, blocks).DecodedLevels()
	if baseline < 1 {
		t.Fatalf("seed %d provisioning does not decode the critical level", seed)
	}

	for round := 0; round < churnRounds; round++ {
		victim := round % len(f.servers)
		f.kill(victim)
		f.heal(victim)

		// firstHealed[lvl] is the repair round in which the level's
		// deficit first reached zero; priority demands it is
		// non-decreasing in lvl.
		firstHealed := make([]int, levels.Count())
		for i := range firstHealed {
			firstHealed[i] = -1
		}
		for rr := 0; ; rr++ {
			if rr > 32 {
				t.Fatalf("churn round %d: repair did not converge in 32 rounds", round)
			}
			rep, err := d.RunOnce(ctx)
			if err != nil {
				t.Fatalf("churn round %d repair round %d: %v", round, rr, err)
			}
			if len(rep.SkippedLevels) > 0 {
				t.Fatalf("churn round %d: daemon skipped levels %v — survivors lost", round, rep.SkippedLevels)
			}
			audit, err := AuditFleet(ctx, f.repl, AuditConfig{Targets: targets})
			if err != nil {
				t.Fatal(err)
			}
			for lvl, lr := range audit.Levels {
				if lr.Deficit == 0 && firstHealed[lvl] < 0 {
					firstHealed[lvl] = rr
				}
			}
			trace.addf("round=%d rr=%d regen=%d placed=%d deficit=%d truncated=%v",
				round, rr, rep.Regenerated, rep.BytesPlaced, audit.TotalDeficit(), rep.Truncated)

			// Acceptance: the critical prefix decodes after EVERY repair
			// round, mid-churn included, with zero client-visible errors.
			got, err := f.collect(ctx, -1)
			if err != nil {
				t.Fatalf("churn round %d: client-visible collect error: %v", round, err)
			}
			checkCriticalLevel(t, decodeAll(t, levels, got), levels, sources)

			if audit.TotalDeficit() == 0 {
				break
			}
		}

		// Priority order: a less critical level never returns to target
		// strictly before a more critical one.
		for lvl := 1; lvl < levels.Count(); lvl++ {
			if firstHealed[lvl] < firstHealed[lvl-1] {
				t.Fatalf("churn round %d: level %d healed in repair round %d, before level %d (round %d)",
					round, lvl, firstHealed[lvl], lvl-1, firstHealed[lvl-1])
			}
		}

		// After convergence the fleet decodes at least as deep as the
		// original provisioning did, and every recovered source block
		// survives churn intact.
		got, err := f.collect(ctx, -1)
		if err != nil {
			t.Fatalf("churn round %d: collect after convergence: %v", round, err)
		}
		dec := decodeAll(t, levels, got)
		if dec.DecodedLevels() < baseline {
			t.Fatalf("churn round %d: converged fleet decodes %d levels, provisioning decoded %d",
				round, dec.DecodedLevels(), baseline)
		}
		for i := 0; i < levels.CumSize(dec.DecodedLevels()-1); i++ {
			src, err := dec.Source(i)
			if err != nil {
				t.Fatal(err)
			}
			if string(src) != string(sources[i]) {
				t.Fatalf("churn round %d: source %d corrupted after repair", round, i)
			}
		}
		trace.addf("round=%d firstHealed=%v", round, firstHealed)
	}

	// Fingerprint the final fleet state: per-replica per-level inventory
	// plus the sorted marshaled collected set.
	stats, errs := f.repl.StatAll(ctx)
	for i, e := range errs {
		if e != nil {
			t.Fatalf("final stat of replica %d: %v", i, e)
		}
		trace.addf("replica=%d stats=%+v", i, stats[i])
	}
	got, err := f.collect(ctx, -1)
	if err != nil {
		t.Fatal(err)
	}
	var marshaled []string
	for _, b := range got {
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		marshaled = append(marshaled, string(data))
	}
	sort.Strings(marshaled)
	for _, m := range marshaled {
		trace.addf("block=%x", sha256.Sum256([]byte(m)))
	}
	return trace.digest()
}

// TestChurnAcceptance is the headline scenario, and pins that the whole
// history — every regeneration, every placement, the final inventory —
// is reproducible under a fixed seed.
func TestChurnAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("churn scenario needs real TCP round trips")
	}
	first := runChurnScenario(t, 23)
	second := runChurnScenario(t, 23)
	if first != second {
		t.Fatalf("same seed, different churn history:\n  %s\n  %s", first, second)
	}
}

// TestChurnLosesNothingToDedup pins the interaction the daemon depends
// on: regenerated blocks carry fresh coefficients, so replica-level
// dedup (which keeps put-retries idempotent) never swallows them. After
// one full churn round the collected set is strictly larger than the
// original provisioning.
func TestChurnLosesNothingToDedup(t *testing.T) {
	levels, _, blocks, targets := testCode(t, 31, 24)
	f := newFleet(t, 3, levels.Count())
	d, err := New(f.repl, f.seed(levels, blocks, targets))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f.kill(1)
	f.heal(1)
	for i := 0; i < 8; i++ {
		if _, err := d.RunOnce(ctx); err != nil {
			t.Fatal(err)
		}
		audit, err := AuditFleet(ctx, f.repl, AuditConfig{Targets: targets})
		if err != nil {
			t.Fatal(err)
		}
		if audit.TotalDeficit() == 0 {
			break
		}
	}
	got, err := f.collect(ctx, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) <= len(blocks)-1 {
		t.Fatalf("collected %d distinct blocks after repair, want > %d — regenerated blocks deduped away?",
			len(got), len(blocks)-1)
	}
}
