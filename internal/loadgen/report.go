package loadgen

import (
	"fmt"
	"strings"
)

// DecodeCheck is the end-of-run bit-exactness probe: collect every
// object from whatever the fleet still holds and verify its level-0
// (most critical) sources decode byte-identical to what the generator
// encoded from. The check stops at the first object that fails.
type DecodeCheck struct {
	Objects      int    // objects checked, the failing one included
	Object       string // the first object that failed; "" when all passed
	BlocksRead   int    // summed over the checked objects
	Level0Blocks int    // level-0 sources per object
	BitExact     bool
	Err          string
}

// ScrapeCheck cross-validates the generator's own numbers against the
// fleet's scraped metrics registries: the client-side registry must have
// seen at least as many successful ops as the generator counted, and the
// daemons' request totals must line up unless a restart reset them.
type ScrapeCheck struct {
	Nodes        int
	ScrapeErrors int
	ServerOps    float64
	ClientOpsOK  float64
	GeneratorOK  int
	Consistent   bool
	Detail       string
}

// HealCheck summarizes the healer's work during a run: how often it
// woke, what it refilled and re-homed, and what it reclaimed from stale
// holders. Counts come from the mover's own metrics, so they cover
// every round of the run.
type HealCheck struct {
	Rounds            int
	RoundErrors       float64
	Kicks             float64
	ObjectsPlanned    float64
	ObjectsHealed     float64
	ObjectErrors      float64
	BlocksRegenerated float64
	BlocksCopied      float64
	DeletesIssued     float64
	BlocksReclaimed   float64
}

// Report is one scenario's SLO report: the op counts, the executed
// fault schedule, and the checks the run is gated on.
type Report struct {
	Scenario        string
	Seed            int64
	Nodes           int
	WallSeconds     float64
	OpsPlanned      int
	OpsRun          int
	OpsOK           int
	ClientErrors    int
	OverloadDropped int
	Heal            *HealCheck
	Decode          DecodeCheck
	ScheduleHash    string
	Faults          []FaultRecord
	Scrape          ScrapeCheck
}

// SLOViolations returns the human-readable list of hard-SLO failures:
// decode not bit-exact always fails; client errors fail only for
// scenarios that promise zero (churn-storm). Empty means the run passed.
func (r *Report) SLOViolations(expectZeroErrors bool) []string {
	var v []string
	if !r.Decode.BitExact {
		v = append(v, fmt.Sprintf("level-0 decode not bit-exact: object %s: %s", r.Decode.Object, r.Decode.Err))
	}
	if expectZeroErrors && r.ClientErrors > 0 {
		v = append(v, fmt.Sprintf("%d client-visible errors (scenario promises zero)", r.ClientErrors))
	}
	if !r.Scrape.Consistent {
		v = append(v, fmt.Sprintf("metrics cross-check inconsistent: %s", r.Scrape.Detail))
	}
	return v
}

// Text renders the report as the console summary.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (seed %d, %d nodes, %.1fs wall)\n",
		r.Scenario, r.Seed, r.Nodes, r.WallSeconds)
	fmt.Fprintf(&b, "  ops: %d planned, %d run, %d ok, %d errors, %d overload-dropped\n",
		r.OpsPlanned, r.OpsRun, r.OpsOK, r.ClientErrors, r.OverloadDropped)
	if len(r.Faults) > 0 {
		fmt.Fprintf(&b, "  faults (schedule %s):\n", r.ScheduleHash)
		for _, f := range r.Faults {
			line := fmt.Sprintf("    %7.2fs %-9s node%d", f.FiredAt.Seconds(), f.Kind, f.Node)
			if f.RevertAt < 0 {
				line += " permanent"
			} else {
				line += fmt.Sprintf(" reverted %.2fs", f.RevertedAt.Seconds())
			}
			if f.Err != "" {
				line += " err=" + f.Err
			}
			if f.RevertErr != "" {
				line += " revert-err=" + f.RevertErr
			}
			b.WriteString(line + "\n")
		}
	}
	if m := r.Heal; m != nil {
		fmt.Fprintf(&b, "  heal: %d rounds, %g kicks, %g/%g objects healed (%g errors), %g regenerated + %g copied blocks, %g stale blocks reclaimed via %g deletes\n",
			m.Rounds, m.Kicks, m.ObjectsHealed, m.ObjectsPlanned, m.ObjectErrors,
			m.BlocksRegenerated, m.BlocksCopied, m.BlocksReclaimed, m.DeletesIssued)
	}
	decode := "bit-exact"
	if !r.Decode.BitExact {
		decode = fmt.Sprintf("FAILED: object %s: %s", r.Decode.Object, r.Decode.Err)
	}
	fmt.Fprintf(&b, "  decode spot-check: %s (%d objects, %d blocks read, %d level-0 sources each)\n",
		decode, r.Decode.Objects, r.Decode.BlocksRead, r.Decode.Level0Blocks)
	consistent := "consistent"
	if !r.Scrape.Consistent {
		consistent = "INCONSISTENT: " + r.Scrape.Detail
	}
	fmt.Fprintf(&b, "  scrape cross-check: %s (%d nodes, server %g reqs, client %g ok, generator %d ok)\n",
		consistent, r.Scrape.Nodes, r.Scrape.ServerOps, r.Scrape.ClientOpsOK, r.Scrape.GeneratorOK)
	return b.String()
}
