package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunRequiresWork(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no-op invocation accepted")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "9z", "-scale", "20", "-trials", "5"}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunEachFigureSmall regenerates every figure at 1/20 scale with few
// trials — a smoke test of all code paths including CSV output.
func TestRunEachFigureSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is expensive; run without -short")
	}
	csvDir := t.TempDir()
	for _, fig := range []string{"4a", "5a", "6a", "7"} {
		if err := run([]string{
			"-fig", fig, "-scale", "20", "-trials", "5", "-stride", "100",
			"-csv", csvDir, "-seed", "2",
		}); err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		csv := filepath.Join(csvDir, "fig"+fig+".csv")
		info, err := os.Stat(csv)
		if err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		if info.Size() == 0 {
			t.Fatalf("figure %s: empty CSV", fig)
		}
	}
}

func TestRunTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("feasibility solving is expensive; run without -short")
	}
	if err := run([]string{"-table", "1", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig7Ours(t *testing.T) {
	if testing.Short() {
		t.Skip("solver + simulation; run without -short")
	}
	if err := run([]string{"-fig", "7ours", "-scale", "20", "-trials", "5", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
}
