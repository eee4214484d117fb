package main

import "testing"

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := parseConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.network != "sensor" || cfg.nodes != 250 || cfg.m != 300 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if len(cfg.levels) != 3 || cfg.levels[0] != 10 {
		t.Errorf("default levels = %v", cfg.levels)
	}
	if len(cfg.dist) != 3 {
		t.Errorf("default dist = %v", cfg.dist)
	}
	if len(cfg.fails) != 5 {
		t.Errorf("default fail sweep = %v", cfg.fails)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := [][]string{
		{"-levels", "abc"},
		{"-dist", "xyz"},
		{"-scheme", "bogus"},
		{"-fail", "0.1,oops"},
		{"-fail", "nan"},
		{"-times", "0,nan"},
		{"-lifetime", "nan"},
		{"-lifetime", "inf"},
		{"-radius", "nan"},
	}
	for i, args := range cases {
		if _, err := parseConfig(args); err == nil {
			t.Errorf("bad args %d accepted: %v", i, args)
		}
	}
}

func TestRunValidationErrors(t *testing.T) {
	cases := [][]string{
		{"-levels", "0"},                       // zero-size level
		{"-dist", "0.5,0.5,0.5"},               // wrong-length distribution
		{"-network", "carrier-pigeon"},         // unknown substrate
		{"-fail", "1.5", "-trials", "1"},       // failure fraction > 1
		{"-fail", "nan", "-trials", "1"},       // NaN failure fraction
		{"-levels", "2,2", "-dist", "0.9,0.2"}, // not a distribution
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("bad run args %d accepted: %v", i, args)
		}
	}
}

// TestRunSmokeSensor exercises the whole pipeline at small scale.
func TestRunSmokeSensor(t *testing.T) {
	err := run([]string{
		"-nodes", "80", "-radius", "0.25", "-levels", "2,4", "-m", "20",
		"-fail", "0,0.5", "-trials", "2", "-payload", "4", "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSmokeChord(t *testing.T) {
	err := run([]string{
		"-network", "chord", "-nodes", "60", "-levels", "2,4", "-m", "20",
		"-fail", "0", "-trials", "2", "-payload", "4", "-seed", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSmokeChurnTimeline(t *testing.T) {
	err := run([]string{
		"-lifetime", "10", "-nodes", "70", "-radius", "0.22",
		"-levels", "2,4", "-m", "20", "-trials", "3", "-times", "0,15",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunChurnRequiresSensor(t *testing.T) {
	err := run([]string{
		"-network", "chord", "-lifetime", "10", "-levels", "2,4", "-m", "20",
	})
	if err == nil {
		t.Error("churn timeline on chord accepted")
	}
}

func TestParseConfigBadTimes(t *testing.T) {
	if _, err := parseConfig([]string{"-times", "1,zebra"}); err == nil {
		t.Error("bad -times accepted")
	}
}
