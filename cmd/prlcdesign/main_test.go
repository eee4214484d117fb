package main

import (
	"os"
	"testing"
)

func TestParseOptionsErrors(t *testing.T) {
	cases := [][]string{
		nil, // no -levels
		{"-levels", "abc"},
		{"-levels", "5,5", "-scheme", "nope"},
		{"-levels", "5,5", "-constraints", "garbled"},
		{"-levels", "5,5", "-constraints", "x:1"},
		{"-levels", "5,5", "-constraints", "10:y"},
		{"-levels", "5,5", "-utility", "1,1"}, // utility without budget
		{"-levels", "5,5"},                    // nothing to design
		{"-levels", "5,5", "-not-a-flag"},     // flag error
		{"-levels", "10,40,150", "-constraints", "60:nan"},
		{"-levels", "10,40,150", "-alpha", "nan"},
		{"-levels", "10,40,150", "-alpha", "2", "-eps", "nan"},
	}
	for i, args := range cases {
		if _, err := parseOptions(args); err == nil {
			t.Errorf("bad args %d accepted: %v", i, args)
		}
	}
}

func TestParseUtilitySpecs(t *testing.T) {
	opts, err := parseOptions([]string{"-levels", "2,4", "-utility", "prop", "-budget", "10"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.utilitySpec != "prop" || opts.budget != 10 {
		t.Errorf("parsed %+v", opts)
	}
}

func TestRunFeasibleDesign(t *testing.T) {
	err := run([]string{
		"-levels", "4,8", "-constraints", "6:1", "-seed", "1", "-curvepoints", "5",
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunInfeasibleDesign(t *testing.T) {
	err := run([]string{
		"-levels", "4,8", "-constraints", "3:2", "-seed", "1", "-maxevals", "80",
	}, os.Stdout)
	if err == nil {
		t.Error("impossible design reported success")
	}
}

func TestRunUtilityDesign(t *testing.T) {
	err := run([]string{
		"-levels", "3,9", "-utility", "1,0.1", "-budget", "6",
		"-seed", "2", "-maxevals", "300", "-curvepoints", "4",
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUtilityGeo(t *testing.T) {
	err := run([]string{
		"-levels", "3,3", "-utility", "geo:0.5", "-budget", "8",
		"-seed", "3", "-maxevals", "200", "-curvepoints", "3",
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUtilityBadSpec(t *testing.T) {
	if err := run([]string{
		"-levels", "3,3", "-utility", "geo:xyz", "-budget", "8",
	}, os.Stdout); err == nil {
		t.Error("bad geo base accepted")
	}
	if err := run([]string{
		"-levels", "3,3", "-utility", "1,bogus", "-budget", "8",
	}, os.Stdout); err == nil {
		t.Error("bad utility values accepted")
	}
}

func TestRunUtilityWithConstraints(t *testing.T) {
	err := run([]string{
		"-levels", "3,9", "-utility", "0.1,1", "-budget", "20",
		"-constraints", "5:0.7", "-seed", "4", "-maxevals", "500", "-curvepoints", "3",
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
}
