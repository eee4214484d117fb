package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
)

func TestScenariosCmd(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"scenarios"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"steady-state", "flash-crowd", "churn-storm", "repair-under-load"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("scenarios output missing %s:\n%s", want, b.String())
		}
	}
}

func TestShowCmd(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"show", "churn-storm"}, &b); err != nil {
		t.Fatal(err)
	}
	var sc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &sc); err != nil {
		t.Fatalf("show output is not JSON: %v\n%s", err, b.String())
	}
	if sc["name"] != "churn-storm" || sc["expect_zero_errors"] != true {
		t.Errorf("show output = %v", sc)
	}
	if err := run([]string{"show", "nope"}, &b); err == nil {
		t.Error("show nope succeeded")
	}
}

func TestBadUsage(t *testing.T) {
	var b strings.Builder
	for _, args := range [][]string{
		{},
		{"explode"},
		{"run"},                                 // missing -scenario
		{"run", "-scenario", "nope"},            // unknown builtin
		{"matrix", "-scenario", "steady-state"}, // matrix takes no scenario
		{"run", "-scenario", "steady-state", "extra"}, // stray arg
	} {
		if err := run(args, &b); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// One short churn scenario against the in-process fleet, end to end
// through the CLI: BENCH JSON lands on disk, -check passes, zero
// client-visible errors, bit-exact decode.
func TestRunInprocWritesBench(t *testing.T) {
	dir := t.TempDir()
	scPath := filepath.Join(dir, "sc.json")
	outPath := filepath.Join(dir, "load.json")
	os.WriteFile(scPath, []byte(`{
		"name": "cli-churn", "seed": 5, "duration": "700ms", "clients": 16,
		"rate": 120, "put_fraction": 0.4, "objects": 2, "blocks": 8,
		"payload_bytes": 256, "level_fractions": [0.25, 0.75], "tolerance": 1,
		"expect_zero_errors": true,
		"faults": [
			{"at": "100ms", "kind": "kill", "node": -1, "for": "200ms"},
			{"at": "250ms", "kind": "partition", "node": -1, "for": "150ms"}
		]
	}`), 0o644)

	var b strings.Builder
	err := run([]string{"run", "-scenario", scPath, "-nodes", "3", "-out", outPath, "-check"}, &b)
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "all SLOs held") {
		t.Errorf("output:\n%s", b.String())
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("load.json invalid: %v", err)
	}
	if bench.Bench != "load" || bench.Fleet != "inproc" || len(bench.Reports) != 1 {
		t.Fatalf("bench = %+v", bench)
	}
	rep := bench.Reports[0]
	if rep.OpsRun == 0 || rep.ClientErrors != 0 || !rep.Decode.BitExact {
		t.Errorf("report = ops %d, errors %d, bit-exact %v (%s)",
			rep.OpsRun, rep.ClientErrors, rep.Decode.BitExact, rep.Decode.Err)
	}
	if len(rep.Faults) != 2 || rep.ScheduleHash == "" {
		t.Errorf("faults = %+v hash=%q", rep.Faults, rep.ScheduleHash)
	}
	if len(bench.Violations) != 0 {
		t.Errorf("violations = %v", bench.Violations)
	}
}

// buildPrlcd compiles the real daemon once per test binary.
func buildPrlcd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "prlcd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/prlcd")
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building prlcd: %v\n%s", err, out)
	}
	return bin
}

// The acceptance shape: a chaos scenario against real prlcd processes —
// kill -9 and re-exec with the same data directory mid-load — ending in
// a valid report with a bit-exact decode and consistent scrapes.
func TestRunAgainstRealDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and execs real daemons")
	}
	bin := buildPrlcd(t)
	dir := t.TempDir()
	scPath := filepath.Join(dir, "sc.json")
	outPath := filepath.Join(dir, "load.json")
	os.WriteFile(scPath, []byte(`{
		"name": "real-churn", "seed": 6, "duration": "1s", "clients": 16,
		"rate": 100, "put_fraction": 0.4, "objects": 2, "blocks": 8,
		"payload_bytes": 256, "level_fractions": [0.25, 0.75], "tolerance": 1,
		"expect_zero_errors": true,
		"faults": [{"at": "200ms", "kind": "kill", "node": -1, "for": "300ms"}]
	}`), 0o644)

	var b strings.Builder
	err := run([]string{"run", "-scenario", scPath, "-nodes", "3",
		"-prlcd", bin, "-data-dir", filepath.Join(dir, "data"),
		"-out", outPath, "-check"}, &b)
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	var bench benchFile
	raw, _ := os.ReadFile(outPath)
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	rep := bench.Reports[0]
	if bench.Fleet != "prlcd" || rep.OpsRun == 0 || !rep.Decode.BitExact {
		t.Errorf("bench=%s ops=%d decode=%v (%s)\n%s",
			bench.Fleet, rep.OpsRun, rep.Decode.BitExact, rep.Decode.Err, b.String())
	}
	if rep.ClientErrors != 0 {
		t.Errorf("%d client-visible errors against real daemons\n%s", rep.ClientErrors, b.String())
	}
	if rep.Scrape.Nodes != 3 || rep.Scrape.ScrapeErrors != 0 {
		t.Errorf("scrape = %+v", rep.Scrape)
	}
	// The killed node's data dir has segments on disk: a real durable
	// restart, not a fresh daemon.
	matches, _ := filepath.Glob(filepath.Join(dir, "data", "node*", "seg-*.plcseg"))
	if len(matches) == 0 {
		t.Error("no segment files under the fleet data dirs")
	}
}

func TestApplyOverridesScalesSchedule(t *testing.T) {
	sc, err := loadgen.Builtin("churn-storm")
	if err != nil {
		t.Fatal(err)
	}
	applyOverrides(&sc, sc.Duration.D()/10, sc.Rate*2, 8, 99)
	if sc.Clients != 8 || sc.Seed != 99 {
		t.Errorf("overrides = %+v", sc)
	}
	// churn-storm's first fault is at 1s of a 10s run; a 10x shorter run
	// puts it at 100ms.
	if sc.Faults[0].At.D() != 100*time.Millisecond {
		t.Errorf("fault at %v, want 100ms", sc.Faults[0].At.D())
	}
	if sc.Rate != 600 {
		t.Errorf("rate = %v", sc.Rate)
	}
}
