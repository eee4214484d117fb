package cliutil

import (
	"bytes"
	"flag"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestParseFloats(t *testing.T) {
	got, err := ParseFloats(" 0.1, 0.2,0.7")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0.1 || got[2] != 0.7 {
		t.Fatalf("ParseFloats = %v", got)
	}
	for _, bad := range []string{"1,x", "nan,1", "0.5, NaN", "inf,1", "1,-Inf", "+inf"} {
		if got, err := ParseFloats(bad); err == nil {
			t.Fatalf("ParseFloats(%q) = %v, want an error", bad, got)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := ParseInts("4, 12")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 4 || got[1] != 12 {
		t.Fatalf("ParseInts = %v", got)
	}
	if _, err := ParseInts("4,1.5"); err == nil {
		t.Fatal("float accepted as int")
	}
}

func TestSplitAddrs(t *testing.T) {
	got := SplitAddrs(" a:1 ,, b:2,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("SplitAddrs = %v", got)
	}
}

func TestFractionsToSizes(t *testing.T) {
	sizes, err := FractionsToSizes([]float64{0.1, 0.2, 0.7}, 100)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	if sum != 100 || sizes[0] != 10 || sizes[1] != 20 || sizes[2] != 70 {
		t.Fatalf("FractionsToSizes = %v (sum %d)", sizes, sum)
	}
	if _, err := FractionsToSizes(nil, 10); err == nil {
		t.Fatal("no fractions accepted")
	}
	if _, err := FractionsToSizes([]float64{1, 1, 1, 1}, 3); err == nil {
		t.Fatal("more levels than blocks accepted")
	}
	for _, bad := range [][]float64{
		{0, 1},
		{math.NaN(), 1},
		{math.Inf(1), 1},
		{1, math.Inf(-1)},
		{math.MaxFloat64, math.MaxFloat64},
	} {
		if got, err := FractionsToSizes(bad, 10); err == nil {
			t.Fatalf("FractionsToSizes(%v, 10) = %v, want an error", bad, got)
		}
	}
	// Tiny fractions round up to one block.
	sizes, err = FractionsToSizes([]float64{0.001, 0.999}, 10)
	if err != nil || sizes[0] != 1 {
		t.Fatalf("tiny fraction: %v, %v", sizes, err)
	}
}

func TestSplitPayloads(t *testing.T) {
	data := []byte("abcdefghij") // 10 bytes into 3 blocks of 4
	got := SplitPayloads(data, 3)
	if len(got) != 3 || len(got[0]) != 4 {
		t.Fatalf("SplitPayloads shape: %v", got)
	}
	if !bytes.Equal(got[0], []byte("abcd")) || !bytes.Equal(got[2], []byte("ij\x00\x00")) {
		t.Fatalf("SplitPayloads content: %q", got)
	}
}

// TestGeometryArgsRoundTrip pins the put banner to the get parser: the
// flags Args renders parse back to the same geometry, levelled or
// chunked.
func TestGeometryArgsRoundTrip(t *testing.T) {
	for _, g := range []Geometry{
		{Scheme: core.PLC, LevelSizes: []int{10, 20, 70}, FileSize: 183964},
		{Scheme: core.SLC, LevelSizes: []int{6, 14}},
		{Scheme: core.PLC, LevelSizes: []int{100, 200, 700}, FileSize: 65536, ChunkSize: 256, ChunkOverlap: 32},
	} {
		fs := flag.NewFlagSet("get", flag.ContinueOnError)
		parse := GeometryFlags(fs)
		if err := fs.Parse(g.Args()); err != nil {
			t.Fatal(err)
		}
		got, err := parse()
		if err != nil {
			t.Fatalf("%v: %v", g.Args(), err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Errorf("%v parsed to %+v, want %+v", g.Args(), got, g)
		}
	}
}
