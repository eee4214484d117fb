package loadgen

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// OpStats summarizes one (kind, level) latency series, computed from
// the generator's own clocks.
type OpStats struct {
	Count     int     `json:"count"`
	Errors    int     `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanMs    float64 `json:"mean_ms"`
	MaxMs     float64 `json:"max_ms"`
}

// LevelStats is the SLO view for one priority level.
type LevelStats struct {
	Level int     `json:"level"`
	Put   OpStats `json:"put"`
	Get   OpStats `json:"get"`
}

// DecodeCheck is the end-of-run bit-exactness probe: collect the
// spot-check object from whatever the fleet still holds and verify the
// level-0 (most critical) sources decode byte-identical to what the
// generator encoded from.
type DecodeCheck struct {
	Object        string `json:"object"`
	BlocksRead    int    `json:"blocks_read"`
	DecodedLevels int    `json:"decoded_levels"`
	Level0Blocks  int    `json:"level0_blocks"`
	BitExact      bool   `json:"bit_exact"`
	Err           string `json:"err,omitempty"`
}

// ScrapeCheck cross-validates the generator's own numbers against the
// fleet's scraped metrics registries: the client-side registry must have
// seen at least as many successful ops as the generator counted, and the
// daemons' request totals must line up unless a restart reset them.
type ScrapeCheck struct {
	Nodes        int     `json:"nodes"`
	ScrapeErrors int     `json:"scrape_errors"`
	ServerOps    float64 `json:"server_requests_total"`
	ClientOpsOK  float64 `json:"client_ops_total"`
	GeneratorOK  int     `json:"generator_ops_ok"`
	Consistent   bool    `json:"consistent"`
	Detail       string  `json:"detail,omitempty"`
}

// MigrationCheck summarizes the mover's work during a run with a
// placement ring: how often it woke, what it re-homed, and what it
// reclaimed from stale holders. Counts come from the mover's own
// metrics, so they cover every round of the run.
type MigrationCheck struct {
	Rounds            int     `json:"rounds"`
	RoundErrors       float64 `json:"round_errors"`
	Kicks             float64 `json:"kicks"`
	ObjectsPlanned    float64 `json:"objects_planned"`
	ObjectsMigrated   float64 `json:"objects_migrated"`
	ObjectErrors      float64 `json:"object_errors"`
	BlocksRegenerated float64 `json:"blocks_regenerated"`
	BlocksCopied      float64 `json:"blocks_copied"`
	DeletesIssued     float64 `json:"deletes_issued"`
	BlocksReclaimed   float64 `json:"blocks_reclaimed"`
}

// Report is one scenario's SLO report — the unit of prlcload's -out file.
type Report struct {
	Scenario        string          `json:"scenario"`
	Description     string          `json:"description,omitempty"`
	Seed            int64           `json:"seed"`
	Nodes           int             `json:"nodes"`
	WallSeconds     float64         `json:"wall_seconds"`
	OpsPlanned      int             `json:"ops_planned"`
	OpsRun          int             `json:"ops_run"`
	OpsOK           int             `json:"ops_ok"`
	ClientErrors    int             `json:"client_errors"`
	OverloadDropped int             `json:"overload_dropped"`
	OpsPerSec       float64         `json:"ops_per_sec"`
	GoodputMBps     float64         `json:"goodput_mbps"`
	Levels          []LevelStats    `json:"levels"`
	Migration       *MigrationCheck `json:"migration,omitempty"`
	Decode          DecodeCheck     `json:"decode_check"`
	ScheduleHash    string          `json:"schedule_hash"`
	Faults          []FaultRecord   `json:"faults,omitempty"`
	Scrape          ScrapeCheck     `json:"scrape_check"`
}

// SLOViolations returns the human-readable list of hard-SLO failures:
// decode not bit-exact always fails; client errors fail only for
// scenarios that promise zero (churn-storm). Empty means the run passed.
func (r *Report) SLOViolations(expectZeroErrors bool) []string {
	var v []string
	if !r.Decode.BitExact {
		v = append(v, fmt.Sprintf("level-0 decode not bit-exact: %s", r.Decode.Err))
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
	fmt.Fprintf(&b, "  ops: %d planned, %d run, %d ok, %d errors, %d overload-dropped (%.0f ops/s, %.2f MB/s goodput)\n",
		r.OpsPlanned, r.OpsRun, r.OpsOK, r.ClientErrors, r.OverloadDropped, r.OpsPerSec, r.GoodputMBps)
	fmt.Fprintf(&b, "  %-6s %-4s %8s %8s %8s %8s %8s\n", "level", "op", "count", "errors", "p50ms", "p99ms", "maxms")
	for _, ls := range r.Levels {
		for _, row := range []struct {
			name string
			st   OpStats
		}{{"put", ls.Put}, {"get", ls.Get}} {
			if row.st.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-6d %-4s %8d %8d %8.2f %8.2f %8.2f\n",
				ls.Level, row.name, row.st.Count, row.st.Errors, row.st.P50Ms, row.st.P99Ms, row.st.MaxMs)
		}
	}
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
	if m := r.Migration; m != nil {
		fmt.Fprintf(&b, "  migration: %d rounds, %g kicks, %g/%g objects migrated (%g errors), %g regenerated + %g copied blocks, %g stale blocks reclaimed via %g deletes\n",
			m.Rounds, m.Kicks, m.ObjectsMigrated, m.ObjectsPlanned, m.ObjectErrors,
			m.BlocksRegenerated, m.BlocksCopied, m.BlocksReclaimed, m.DeletesIssued)
	}
	decode := "bit-exact"
	if !r.Decode.BitExact {
		decode = "FAILED: " + r.Decode.Err
	}
	fmt.Fprintf(&b, "  decode spot-check: %s (%d blocks read, %d levels, %d level-0 sources)\n",
		decode, r.Decode.BlocksRead, r.Decode.DecodedLevels, r.Decode.Level0Blocks)
	consistent := "consistent"
	if !r.Scrape.Consistent {
		consistent = "INCONSISTENT: " + r.Scrape.Detail
	}
	fmt.Fprintf(&b, "  scrape cross-check: %s (server %g reqs, client %g ok, generator %d ok)\n",
		consistent, r.Scrape.ServerOps, r.Scrape.ClientOpsOK, r.Scrape.GeneratorOK)
	return b.String()
}

// stats folds a latency series into OpStats.
func (s *latSeries) stats() OpStats {
	st := OpStats{Count: len(s.samples), Errors: s.errs}
	if st.Count == 0 {
		return st
	}
	st.ErrorRate = float64(st.Errors) / float64(st.Count)
	sorted := make([]float64, len(s.samples))
	copy(sorted, s.samples)
	sort.Float64s(sorted)
	st.P50Ms = percentile(sorted, 0.50)
	st.P99Ms = percentile(sorted, 0.99)
	st.MaxMs = sorted[len(sorted)-1]
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	st.MeanMs = sum / float64(len(sorted))
	return st
}

// percentile reads the nearest-rank percentile from a sorted series.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// snapshot folds the generator's accumulators into report fields.
func (g *generator) snapshot(rep *Report, wall time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rep.OverloadDropped = g.dropped
	for lvl := range g.put {
		ls := LevelStats{Level: lvl, Put: g.put[lvl].stats(), Get: g.get[lvl].stats()}
		rep.Levels = append(rep.Levels, ls)
		rep.OpsRun += ls.Put.Count + ls.Get.Count
		rep.ClientErrors += ls.Put.Errors + ls.Get.Errors
	}
	rep.OpsOK = rep.OpsRun - rep.ClientErrors
	rep.WallSeconds = wall.Seconds()
	if wall > 0 {
		rep.OpsPerSec = float64(rep.OpsRun) / wall.Seconds()
		rep.GoodputMBps = float64(g.bytes) / (1 << 20) / wall.Seconds()
	}
}
