// Package loadgen drives the real prlcd TCP fleet at production-shaped
// concurrency: an open-loop arrival generator (arrivals are scheduled by
// the clock, never gated on completions, so overload shows up as queueing
// latency instead of silently throttled throughput), a live chaos
// controller that executes seed-deterministic fault schedules against
// real daemons (kill/restart) and the generator's own transport
// (partition/heal, corruption, delay via store.FaultDialer), and an SLO
// reporter that computes per-level put/get p50/p99, error rates, goodput,
// and a bit-exact level-0 decode spot-check from the generator's own
// clocks, cross-checked against each daemon's scraped metrics registry.
//
// Everything random — arrival times, op mix, object choice, level
// choice, payload bytes, fault targets — derives from Scenario.Seed, so
// the same scenario file replays the same schedule. Wall-clock execution
// then stretches or compresses around real daemon behavior, which is the
// point: the schedule is deterministic, the measured latencies are not.
package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("1.5s") and unmarshals from either a string or a float of seconds —
// the scenario-file format.
type Duration time.Duration

func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("loadgen: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("loadgen: duration wants a string like \"10s\" or seconds, got %s", b)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// RatePhase changes the arrival rate mid-run: from At onward, arrivals
// come at Rate ops/sec. Phases model flash crowds without a second
// scenario mechanism.
type RatePhase struct {
	At   Duration `json:"at"`
	Rate float64  `json:"rate"`
}

// FaultSpec is one scheduled fault in a scenario file. Node selects the
// target daemon by fleet index; -1 picks a seed-deterministic target at
// schedule build time ("some node", stable across reruns). Kinds:
//
//	kill       stop the daemon process; For > 0 restarts it that much later
//	partition  cut the generator's transport to the node; For heals it
//	corrupt    flip one byte per written frame with probability Prob; For reverts
//	delay      delay writes with probability Prob; For reverts
//	join       add the node to the placement ring; -1 means the next
//	           spare not yet joined; never reverted
//
// For == 0 on kill means the node stays dead for the rest of the run —
// the repair-under-load shape.
type FaultSpec struct {
	At   Duration `json:"at"`
	Kind string   `json:"kind"`
	Node int      `json:"node"`
	For  Duration `json:"for,omitempty"`
	Prob float64  `json:"prob,omitempty"`
}

// Scenario is one named load-and-chaos experiment, loadable from JSON.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random choice in the run. Same seed, same
	// schedule — the acceptance criterion.
	Seed int64 `json:"seed"`
	// Duration is how long arrivals are generated.
	Duration Duration `json:"duration"`
	// Clients is the worker-pool size: how many ops may be in flight at
	// once. Arrivals beyond this queue (open loop) rather than block.
	Clients int `json:"clients"`
	// Rate is the base arrival rate in ops/sec; Phases override it from
	// their At onward.
	Rate   float64     `json:"rate"`
	Phases []RatePhase `json:"phases,omitempty"`
	// PutFraction of arrivals are puts; the rest are gets.
	PutFraction float64 `json:"put_fraction"`
	// Objects is how many distinct objects the run touches; each gets its
	// own code and namespace. Object choice per op is uniform.
	Objects int `json:"objects"`
	// Blocks/LevelFractions/PayloadBytes shape each object's code:
	// Blocks source blocks of PayloadBytes each, split into priority
	// levels by LevelFractions (most critical first).
	Blocks         int       `json:"blocks"`
	PayloadBytes   int       `json:"payload_bytes"`
	LevelFractions []float64 `json:"level_fractions"`
	// SeedBlocks is the coded-block baseline put per object before the
	// clock starts, so gets decode from op one. 0 = 1.6x Blocks.
	SeedBlocks int `json:"seed_blocks,omitempty"`
	// LevelWeights weight which priority level an op targets (puts encode
	// at the drawn level; gets read maxLevel = the drawn level). Length
	// must match LevelFractions. Empty = uniform.
	LevelWeights []float64 `json:"level_weights,omitempty"`
	// Tolerance is the replicated store's f: the last level is stored on
	// f+1 daemons, level 0 on all.
	Tolerance int `json:"tolerance"`
	// Spares holds the last Spares fleet nodes out of the initial ring;
	// "join" faults grow the ring from this pool (Node -1 = next spare).
	Spares int `json:"spares,omitempty"`
	// Replication is the ring's successor-list size R. 0 = the whole
	// founding ring: every object on every node, the flat fleet.
	Replication int `json:"replication,omitempty"`
	// Migrate runs the migration mover over the ring for the whole run,
	// kicked by every membership change — the grow-fleet shape.
	Migrate bool `json:"migrate,omitempty"`
	// MigrateInterval overrides the mover's round interval.
	MigrateInterval Duration `json:"migrate_interval,omitempty"`
	// MigrateRateBytes caps the mover's transfer bandwidth in bytes/sec
	// so migration cannot starve foreground traffic; 0 = unthrottled.
	MigrateRateBytes int64 `json:"migrate_rate_bytes,omitempty"`
	// QueueDepth bounds the arrival queue; arrivals finding it full are
	// counted as overload-dropped, never silently blocked on. 0 = 4x
	// Clients.
	QueueDepth int `json:"queue_depth,omitempty"`
	// Faults is the chaos schedule (see FaultSpec).
	Faults []FaultSpec `json:"faults,omitempty"`
	// Repair runs a decode-free repair daemon over the spot-check object
	// for the whole run — the repair-under-load shape.
	Repair bool `json:"repair,omitempty"`
	// RepairInterval overrides the repair daemon's round interval.
	RepairInterval Duration `json:"repair_interval,omitempty"`
	// ExpectZeroErrors marks scenarios whose SLO includes "no
	// client-visible errors" (churn-storm); runners can gate on it.
	ExpectZeroErrors bool `json:"expect_zero_errors,omitempty"`
}

// Validate checks the scenario and fills nothing: scenarios are data, so
// surprising defaults would hide in files. Only genuinely optional
// fields (SeedBlocks, QueueDepth, LevelWeights) have computed fallbacks,
// applied at run time.
func (s *Scenario) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("loadgen: scenario needs a name")
	case s.Duration <= 0:
		return fmt.Errorf("loadgen: scenario %s: duration must be positive", s.Name)
	case s.Clients <= 0:
		return fmt.Errorf("loadgen: scenario %s: clients must be positive", s.Name)
	case s.Rate <= 0:
		return fmt.Errorf("loadgen: scenario %s: rate must be positive", s.Name)
	case s.PutFraction < 0 || s.PutFraction > 1:
		return fmt.Errorf("loadgen: scenario %s: put_fraction %v outside [0,1]", s.Name, s.PutFraction)
	case s.Objects <= 0:
		return fmt.Errorf("loadgen: scenario %s: objects must be positive", s.Name)
	case s.Blocks <= 0:
		return fmt.Errorf("loadgen: scenario %s: blocks must be positive", s.Name)
	case s.PayloadBytes <= 0:
		return fmt.Errorf("loadgen: scenario %s: payload_bytes must be positive", s.Name)
	case len(s.LevelFractions) == 0:
		return fmt.Errorf("loadgen: scenario %s: level_fractions is required", s.Name)
	case s.Tolerance < 0:
		return fmt.Errorf("loadgen: scenario %s: tolerance must be >= 0", s.Name)
	case s.Spares < 0 || s.Replication < 0:
		return fmt.Errorf("loadgen: scenario %s: spares and replication must be >= 0", s.Name)
	case s.MigrateRateBytes < 0:
		return fmt.Errorf("loadgen: scenario %s: migrate_rate_bytes must be >= 0", s.Name)
	}
	if len(s.LevelWeights) > 0 && len(s.LevelWeights) != len(s.LevelFractions) {
		return fmt.Errorf("loadgen: scenario %s: %d level_weights for %d levels",
			s.Name, len(s.LevelWeights), len(s.LevelFractions))
	}
	for _, p := range s.Phases {
		if p.Rate <= 0 || p.At < 0 {
			return fmt.Errorf("loadgen: scenario %s: phase at %v rate %v invalid", s.Name, p.At.D(), p.Rate)
		}
	}
	for i, f := range s.Faults {
		switch f.Kind {
		case "kill", "partition", "corrupt", "delay", "join":
		default:
			return fmt.Errorf("loadgen: scenario %s: fault %d: unknown kind %q", s.Name, i, f.Kind)
		}
		if f.At < 0 || f.For < 0 {
			return fmt.Errorf("loadgen: scenario %s: fault %d: negative offset", s.Name, i)
		}
		if (f.Kind == "corrupt" || f.Kind == "delay") && (f.Prob <= 0 || f.Prob > 1) {
			return fmt.Errorf("loadgen: scenario %s: fault %d: %s needs prob in (0,1]", s.Name, i, f.Kind)
		}
		if f.Kind == "partition" && f.For <= 0 {
			return fmt.Errorf("loadgen: scenario %s: fault %d: partition needs a heal window (for)", s.Name, i)
		}
		if f.Kind == "join" && f.For > 0 {
			return fmt.Errorf("loadgen: scenario %s: fault %d: join is permanent, drop the revert window", s.Name, i)
		}
	}
	return nil
}

// LoadScenarios reads a scenario file: either one scenario object or an
// array of them. Every scenario is validated.
func LoadScenarios(path string) ([]Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []Scenario
	if err := json.Unmarshal(raw, &many); err != nil {
		var one Scenario
		if err2 := json.Unmarshal(raw, &one); err2 != nil {
			return nil, fmt.Errorf("loadgen: %s is neither a scenario nor a scenario list: %v", path, err)
		}
		many = []Scenario{one}
	}
	for i := range many {
		if err := many[i].Validate(); err != nil {
			return nil, err
		}
	}
	return many, nil
}

// Builtins returns the five named scenarios of the `make loadtest`
// matrix, scaled for a small local fleet. Durations and rates are meant
// to be overridden by the runner's flags for bigger machines.
func Builtins() []Scenario {
	base := Scenario{
		Seed:           1,
		Duration:       Duration(10 * time.Second),
		Clients:        64,
		Rate:           300,
		PutFraction:    0.3,
		Objects:        4,
		Blocks:         16,
		PayloadBytes:   1024,
		LevelFractions: []float64{0.25, 0.75},
		LevelWeights:   []float64{0.5, 0.5},
		Tolerance:      1,
	}
	steady := base
	steady.Name = "steady-state"
	steady.Description = "constant open-loop mix against a healthy fleet: the latency baseline"

	flash := base
	flash.Name = "flash-crowd"
	flash.Seed = 2
	flash.Description = "10x arrival burst through the middle third: queueing shows up in p99, not in dropped load"
	flash.Phases = []RatePhase{
		{At: Duration(3 * time.Second), Rate: base.Rate * 10},
		{At: Duration(6 * time.Second), Rate: base.Rate},
	}

	churn := base
	churn.Name = "churn-storm"
	churn.Seed = 3
	churn.Description = "kill/restart and partition/heal cycles under load; SLO includes zero client-visible errors and bit-exact level-0 decode"
	churn.ExpectZeroErrors = true
	churn.Faults = []FaultSpec{
		{At: Duration(1 * time.Second), Kind: "kill", Node: -1, For: Duration(2 * time.Second)},
		{At: Duration(2 * time.Second), Kind: "partition", Node: -1, For: Duration(1500 * time.Millisecond)},
		{At: Duration(5 * time.Second), Kind: "kill", Node: -1, For: Duration(2 * time.Second)},
		{At: Duration(6 * time.Second), Kind: "partition", Node: -1, For: Duration(1 * time.Second)},
	}

	repairUL := base
	repairUL.Name = "repair-under-load"
	repairUL.Seed = 4
	repairUL.Description = "a daemon dies for good and a corruption window opens while a repair daemon regenerates redundancy mid-traffic"
	repairUL.Repair = true
	repairUL.RepairInterval = Duration(1 * time.Second)
	repairUL.Faults = []FaultSpec{
		{At: Duration(2 * time.Second), Kind: "kill", Node: -1}, // never restarted
		{At: Duration(4 * time.Second), Kind: "corrupt", Node: -1, For: Duration(2 * time.Second), Prob: 0.02},
	}

	grow := base
	grow.Name = "grow-fleet"
	grow.Seed = 5
	grow.Description = "a spare node joins the ring mid-run and the mover re-homes blocks most-critical-first under live traffic; SLO includes zero client-visible errors and bit-exact level-0 decode"
	grow.Objects = 10 // enough that some objects land on the new node with near-certainty
	grow.Spares = 1
	grow.Replication = 2
	grow.Migrate = true
	grow.MigrateInterval = Duration(500 * time.Millisecond)
	grow.MigrateRateBytes = 8 << 20
	grow.ExpectZeroErrors = true
	grow.Faults = []FaultSpec{
		{At: Duration(3 * time.Second), Kind: "join", Node: -1},
	}
	return []Scenario{steady, flash, churn, repairUL, grow}
}

// Builtin returns one builtin scenario by name.
func Builtin(name string) (Scenario, error) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("loadgen: no builtin scenario %q (want steady-state, flash-crowd, churn-storm, repair-under-load or grow-fleet)", name)
}
