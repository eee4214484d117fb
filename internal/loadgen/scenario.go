// Package loadgen is a pass/fail chaos gate for the real prlcd TCP
// fleet: an open-loop arrival generator (arrivals are scheduled by the
// clock, never gated on completions, so overload shows up as dropped
// arrivals instead of silently throttled demand), a live chaos
// controller that executes seed-deterministic fault schedules against
// real daemons (kill/restart) and the generator's own transport
// (partition/heal, corruption, delay via store.FaultDialer), and an SLO
// report that gates on a bit-exact level-0 decode of every object, zero
// client-visible errors where the scenario promises them, and a
// cross-check of the generator's op counts against each daemon's
// scraped metrics registry. Latency is the benchmark's job, not this
// package's.
//
// Everything random — arrival times, op mix, object choice, level
// choice, payload bytes, fault targets — derives from Scenario.Seed, so
// the same scenario file replays the same schedule. Wall-clock execution
// then stretches or compresses around real daemon behavior: the schedule
// is deterministic, the interleaving is not.
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
	// once. Arrivals beyond this queue (open loop) rather than block; a
	// queue of 4x Clients that is full drops them as overload.
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
	// Heal runs the fleet's healer (the mover) over the ring for the
	// whole run, kicked by every membership change: it re-homes
	// displaced objects and refills every object short on its owners,
	// never decoding — the repair-under-load and grow-fleet shape.
	Heal bool `json:"heal,omitempty"`
	// HealInterval overrides the healer's round interval.
	HealInterval Duration `json:"heal_interval,omitempty"`
	// HealRateBytes caps the healer's transfer bandwidth in bytes/sec so
	// healing cannot starve foreground traffic; 0 = unthrottled.
	HealRateBytes int64 `json:"heal_rate_bytes,omitempty"`
	// Faults is the chaos schedule (see FaultSpec).
	Faults []FaultSpec `json:"faults,omitempty"`
	// ExpectZeroErrors marks scenarios whose SLO includes "no
	// client-visible errors" (churn-storm); runners can gate on it.
	ExpectZeroErrors bool `json:"expect_zero_errors,omitempty"`
}

// Validate checks the scenario and fills nothing: scenarios are data, so
// surprising defaults would hide in files. Only LevelWeights has a
// fallback (uniform), applied at run time.
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
	case s.HealRateBytes < 0:
		return fmt.Errorf("loadgen: scenario %s: heal_rate_bytes must be >= 0", s.Name)
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

// Builtins returns the five named scenarios `prlcload run` runs when no
// scenario is named, scaled for a small local fleet. The runner's
// -duration flag rescales each one's clock.
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
	steady.Description = "constant open-loop mix against a healthy fleet: the no-fault baseline"

	flash := base
	flash.Name = "flash-crowd"
	flash.Seed = 2
	flash.Description = "10x arrival burst through the middle third: the fleet queues or drops the burst as overload, never throttles it"
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
	repairUL.Description = "a daemon dies for good and a corruption window opens while the healer regenerates redundancy mid-traffic"
	repairUL.Heal = true
	repairUL.HealInterval = Duration(1 * time.Second)
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
	grow.Heal = true
	grow.HealInterval = Duration(500 * time.Millisecond)
	grow.HealRateBytes = 8 << 20
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
