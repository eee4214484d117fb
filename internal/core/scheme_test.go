package core

import (
	"math"
	"strings"
	"testing"
)

func TestSchemeString(t *testing.T) {
	cases := []struct {
		s    Scheme
		want string
	}{
		{RLC, "RLC"}, {SLC, "SLC"}, {PLC, "PLC"}, {Scheme(99), "Scheme(99)"},
	}
	for _, tc := range cases {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int(tc.s), got, tc.want)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for _, name := range []string{"RLC", "rlc", "SLC", "slc", "PLC", "plc"} {
		s, err := ParseScheme(name)
		if err != nil {
			t.Errorf("ParseScheme(%q): %v", name, err)
		}
		if !strings.EqualFold(s.String(), name) {
			t.Errorf("ParseScheme(%q) = %v", name, s)
		}
	}
	if _, err := ParseScheme("XYZ"); err == nil {
		t.Error("ParseScheme(XYZ) succeeded, want error")
	}
}

func TestSchemeValid(t *testing.T) {
	if !RLC.Valid() || !SLC.Valid() || !PLC.Valid() {
		t.Error("known schemes reported invalid")
	}
	if Scheme(0).Valid() || Scheme(4).Valid() {
		t.Error("unknown schemes reported valid")
	}
}

// TestSupportMatchesFig1 checks the three support shapes against the Fig. 1
// example: 3 source blocks, level sizes (1, 2).
func TestSupportMatchesFig1(t *testing.T) {
	l := mustLevels(t, 1, 2)
	cases := []struct {
		scheme Scheme
		level  int
		lo, hi int
	}{
		{RLC, 0, 0, 3}, // RLC rows span everything
		{RLC, 1, 0, 3},
		{SLC, 0, 0, 1}, // Fig. 1(b): level-1 row hits only x1
		{SLC, 1, 1, 3}, // level-2 rows hit x2, x3
		{PLC, 0, 0, 1}, // Fig. 1(c): level-1 row hits x1
		{PLC, 1, 0, 3}, // level-2 rows hit x1..x3
	}
	for _, tc := range cases {
		lo, hi, err := tc.scheme.Support(l, tc.level)
		if err != nil {
			t.Fatalf("%v.Support(level %d): %v", tc.scheme, tc.level, err)
		}
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%v.Support(level %d) = [%d, %d), want [%d, %d)",
				tc.scheme, tc.level, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestSupportErrors(t *testing.T) {
	l := mustLevels(t, 2, 2)
	if _, _, err := PLC.Support(l, 2); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, _, err := Scheme(0).Support(l, 0); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestPriorityDistributionValidate(t *testing.T) {
	l := mustLevels(t, 10, 10, 10)
	if err := NewUniformDistribution(3).Validate(l); err != nil {
		t.Errorf("uniform distribution rejected: %v", err)
	}
	if err := (PriorityDistribution{0.5, 0.5}).Validate(l); err == nil {
		t.Error("wrong-length distribution accepted")
	}
	if err := (PriorityDistribution{0.5, 0.6, -0.1}).Validate(l); err == nil {
		t.Error("negative entry accepted")
	}
	if err := (PriorityDistribution{math.NaN(), 0.5, 0.5}).Validate(l); err == nil {
		t.Error("NaN entry accepted")
	}
	// Table 1 Case 2 has a zero entry — must be legal.
	if err := (PriorityDistribution{0, 0.6149, 0.3851}).Validate(l); err != nil {
		t.Errorf("zero-entry distribution rejected: %v", err)
	}
}

func TestPriorityDistributionClone(t *testing.T) {
	p := PriorityDistribution{0.3, 0.7}
	c := p.Clone()
	c[0] = 0.9
	if p[0] != 0.3 {
		t.Error("Clone aliases the original")
	}
}
