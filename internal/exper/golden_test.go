package exper

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
)

// The golden tests pin the simulator's output across commits, not only
// run to run: the hashes were recorded before the Monte-Carlo trial and
// the churn snapshots moved onto collect.Run, so a change to the draw
// order, the stopping rule or the checkpoint bookkeeping shows up here.

func goldenHash(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:])
}

func TestSimulateCurveGolden(t *testing.T) {
	l, err := core.NewLevels(2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := map[core.Scheme]string{
		core.PLC: "ec0222277210799b42ae8e98fc9aab8895c6b14b394ca5d101904f50642b03d0",
		core.SLC: "8be2594660de82ab6eed5c14c03c37e15292000eb0279fa8f63d89f6a516aa8b",
	}
	for scheme, h := range want {
		c, err := SimulateCurve(CurveConfig{
			Scheme: scheme, Levels: l, Dist: core.PriorityDistribution{0.3, 0.3, 0.4},
			Ms: Steps(0, 36, 3), Trials: 20, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenHash(c.Points); got != h {
			t.Errorf("%v curve hash %s, want %s\npoints: %+v", scheme, got, h, c.Points)
		}
	}
}

func TestPersistenceUnderChurnGolden(t *testing.T) {
	cfg := churnConfig(t)
	cfg.Trials = 3
	pts, err := PersistenceUnderChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const want = "fd20bbf70f68949f4ce8dd8f60cd1c296cfb74836e991528d2936b2115f857ad"
	if got := goldenHash(pts); got != want {
		t.Errorf("churn timeline hash %s, want %s\npoints: %+v", got, want, pts)
	}
}
