package loadgen

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
)

// miniScenario is a sub-second steady-state run sized for CI.
func miniScenario(name string, seed int64) Scenario {
	return Scenario{
		Name:           name,
		Seed:           seed,
		Duration:       Duration(700 * time.Millisecond),
		Clients:        16,
		Rate:           150,
		PutFraction:    0.4,
		Objects:        2,
		Blocks:         8,
		PayloadBytes:   256,
		LevelFractions: []float64{0.25, 0.75},
		Tolerance:      1,
	}
}

func testFleet(t *testing.T, n int, withMetrics bool) *ServerFleet {
	t.Helper()
	fleet, err := NewServerFleet(n, withMetrics)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	return fleet
}

func TestRunSteadyStateInProcess(t *testing.T) {
	fleet := testFleet(t, 3, true)
	rep, err := Run(context.Background(), fleet, miniScenario("mini-steady", 7), RunConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsRun == 0 || rep.OpsPlanned == 0 {
		t.Fatalf("no ops ran: %+v", rep)
	}
	if rep.ClientErrors != 0 {
		t.Errorf("%d client errors on a healthy fleet", rep.ClientErrors)
	}
	if !rep.Decode.BitExact {
		t.Errorf("decode spot-check failed: %s", rep.Decode.Err)
	}
	if !rep.Scrape.Consistent {
		t.Errorf("scrape cross-check failed: %s", rep.Scrape.Detail)
	}
	if rep.Scrape.Nodes != 3 || rep.Scrape.ServerOps == 0 {
		t.Errorf("scrape saw %d nodes, %g server ops", rep.Scrape.Nodes, rep.Scrape.ServerOps)
	}
	if v := rep.SLOViolations(true); len(v) != 0 {
		t.Errorf("SLO violations on a healthy run: %v", v)
	}
	// Per-level series must be populated for both levels.
	for _, ls := range rep.Levels {
		if ls.Put.Count+ls.Get.Count == 0 {
			t.Errorf("level %d saw no traffic", ls.Level)
		}
		if ls.Get.Count > 0 && ls.Get.P99Ms < ls.Get.P50Ms {
			t.Errorf("level %d: p99 %v < p50 %v", ls.Level, ls.Get.P99Ms, ls.Get.P50Ms)
		}
	}
	// The report must survive the JSON trip prlcload -out takes.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != rep.Scenario || back.OpsOK != rep.OpsOK {
		t.Errorf("report changed over JSON: %+v vs %+v", back, rep)
	}
}

// The churn shape: kill/restart and partition/heal mid-run, with the
// zero-client-visible-errors SLO and a deterministic fault schedule.
func TestRunChurnZeroErrorsAndDeterministicSchedule(t *testing.T) {
	sc := miniScenario("mini-churn", 11)
	sc.ExpectZeroErrors = true
	sc.Faults = []FaultSpec{
		{At: Duration(100 * time.Millisecond), Kind: "kill", Node: -1, For: Duration(200 * time.Millisecond)},
		{At: Duration(250 * time.Millisecond), Kind: "partition", Node: -1, For: Duration(150 * time.Millisecond)},
	}

	var hashes []string
	for round := 0; round < 2; round++ {
		fleet := testFleet(t, 3, false)
		rep, err := Run(context.Background(), fleet, sc, RunConfig{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, rep.ScheduleHash)
		if rep.ClientErrors != 0 {
			t.Errorf("round %d: %d client-visible errors under churn", round, rep.ClientErrors)
		}
		if !rep.Decode.BitExact {
			t.Errorf("round %d: decode spot-check failed: %s", round, rep.Decode.Err)
		}
		if len(rep.Faults) != len(sc.Faults) {
			t.Errorf("round %d: %d fault records for %d faults", round, len(rep.Faults), len(sc.Faults))
		}
		for _, f := range rep.Faults {
			if f.Err != "" || f.RevertErr != "" {
				t.Errorf("round %d: fault %v err=%q revert=%q", round, f.ScheduledFault, f.Err, f.RevertErr)
			}
		}
	}
	if hashes[0] != hashes[1] {
		t.Errorf("same seed, different fault schedules: %s vs %s", hashes[0], hashes[1])
	}
}

// A permanent kill plus a corruption window: level 0 must still decode
// bit-exact from the survivors — the paper's differentiated-persistence
// claim, exercised through the whole stack.
func TestRunPermanentKillStillDecodesLevel0(t *testing.T) {
	sc := miniScenario("mini-perm", 13)
	sc.Faults = []FaultSpec{
		{At: Duration(100 * time.Millisecond), Kind: "kill", Node: -1}, // never restarted
		{At: Duration(200 * time.Millisecond), Kind: "corrupt", Node: -1, For: Duration(150 * time.Millisecond), Prob: 0.05},
	}
	fleet := testFleet(t, 3, false)
	rep, err := Run(context.Background(), fleet, sc, RunConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Decode.BitExact {
		t.Errorf("level-0 decode failed with one node down: %s", rep.Decode.Err)
	}
}

// The grow-fleet shape: traffic rides the consistent-hash ring while a
// spare node joins mid-run and the mover re-homes blocks — zero
// client-visible errors, bit-exact level-0 decode, and visible
// migration work in the report.
func TestRunGrowFleetMigratesUnderLoad(t *testing.T) {
	sc := miniScenario("mini-grow", 17)
	sc.Duration = Duration(1500 * time.Millisecond)
	// Enough objects that with near-certainty at least one lands on the
	// joining node (ring positions depend on the fleet's random ports).
	sc.Objects = 10
	sc.ExpectZeroErrors = true
	sc.Spares = 1
	sc.Replication = 2
	sc.Migrate = true
	sc.MigrateInterval = Duration(100 * time.Millisecond)
	sc.Faults = []FaultSpec{{At: Duration(400 * time.Millisecond), Kind: "join", Node: -1}}

	// Ring positions come from the fleet's random ports, so on rare
	// geometries every object's replica set already contains both
	// original nodes' successors and the join displaces nothing. A fresh
	// fleet re-rolls the ring, so retry until the mover had work to do
	// (~1.5% no-op probability per attempt).
	var rep *Report
	var m *MigrationCheck
	for attempt := 0; attempt < 3; attempt++ {
		fleet := testFleet(t, 3, true)
		var err error
		rep, err = Run(context.Background(), fleet, sc, RunConfig{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ClientErrors != 0 {
			t.Errorf("%d client-visible errors while the fleet grew", rep.ClientErrors)
		}
		if !rep.Decode.BitExact {
			t.Errorf("decode spot-check failed: %s", rep.Decode.Err)
		}
		if len(rep.Faults) != 1 || rep.Faults[0].Err != "" {
			t.Fatalf("join fault records = %+v", rep.Faults)
		}
		m = rep.Migration
		if m == nil {
			t.Fatal("no migration stats in the report")
		}
		if m.Rounds == 0 {
			t.Error("mover never ran a round")
		}
		if m.Kicks == 0 {
			t.Error("join never kicked the mover")
		}
		if m.ObjectsPlanned > 0 {
			break
		}
		t.Logf("attempt %d: join displaced no objects, re-rolling the ring", attempt)
	}
	if m.ObjectsMigrated == 0 {
		t.Error("nothing migrated after the join")
	}
	if m.BlocksReclaimed == 0 || m.DeletesIssued == 0 {
		t.Errorf("stale copies not reclaimed: %+v", m)
	}
	if v := rep.SLOViolations(true); len(v) != 0 {
		t.Errorf("SLO violations: %v", v)
	}
}

func TestServerFleetKillRestart(t *testing.T) {
	fleet := testFleet(t, 2, false)
	addrs := fleet.Addrs()

	cl, err := store.NewClient(store.ClientConfig{Addr: addrs[0], OpTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("ping before kill: %v", err)
	}
	if err := fleet.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Kill(0); err == nil {
		t.Error("double kill succeeded")
	}
	if err := fleet.Restart(0); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Restart(0); err == nil {
		t.Error("double restart succeeded")
	}
	// Same address serves again (fresh client: the old pool may hold a
	// dead conn, which is the client retry layer's job, not the fleet's).
	cl2, err := store.NewClient(store.ClientConfig{Addr: addrs[0], OpTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl2.Ping(ctx); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
	if got := fleet.Addrs(); got[0] != addrs[0] {
		t.Errorf("restart moved the address: %s -> %s", addrs[0], got[0])
	}
}

func TestLoadScenariosFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenarios.json")
	raw, err := json.MarshalIndent(Builtins(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenarios(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("loaded %d scenarios, want 5", len(got))
	}
	if got[2].Name != "churn-storm" || got[2].Faults[0].Kind != "kill" {
		t.Errorf("scenario 2 = %+v", got[2])
	}
	if got[0].Duration.D() != 10*time.Second {
		t.Errorf("duration round-trip = %v", got[0].Duration.D())
	}

	// Single-object files and bare-seconds durations also load.
	single := filepath.Join(dir, "one.json")
	os.WriteFile(single, []byte(`{"name":"one","seed":1,"duration":1.5,"clients":4,"rate":10,
		"put_fraction":0.5,"objects":1,"blocks":4,"payload_bytes":64,
		"level_fractions":[0.5,0.5],"tolerance":0}`), 0o644)
	one, err := LoadScenarios(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Duration.D() != 1500*time.Millisecond {
		t.Fatalf("single scenario = %+v", one)
	}

	// A file written before every scenario ran on the ring still carries
	// "placement": true; the retired knob is ignored, not an error.
	legacy := filepath.Join(dir, "legacy.json")
	os.WriteFile(legacy, []byte(`{"name":"legacy","seed":1,"duration":"1s","clients":4,"rate":10,
		"put_fraction":0.5,"objects":1,"blocks":4,"payload_bytes":64,
		"level_fractions":[0.5,0.5],"tolerance":1,"placement":true,"spares":1,"replication":2,
		"faults":[{"at":"0.5s","kind":"join","node":-1}]}`), 0o644)
	old, err := LoadScenarios(legacy)
	if err != nil {
		t.Fatalf("scenario with the retired placement knob: %v", err)
	}
	if len(old) != 1 || old[0].Spares != 1 || old[0].Replication != 2 || old[0].Faults[0].Kind != "join" {
		t.Fatalf("legacy scenario = %+v", old)
	}

	// Invalid scenarios are rejected at load time.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"name":"bad","seed":1,"duration":"1s"}`), 0o644)
	if _, err := LoadScenarios(bad); err == nil {
		t.Error("invalid scenario loaded")
	}
}
