package core

import (
	"testing"
	"testing/quick"

	"math/rand"
)

func mustLevels(t testing.TB, sizes ...int) *Levels {
	t.Helper()
	l, err := NewLevels(sizes...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLevelsValidation(t *testing.T) {
	if _, err := NewLevels(); err == nil {
		t.Error("NewLevels() with no sizes succeeded, want error")
	}
	if _, err := NewLevels(1, 0, 2); err == nil {
		t.Error("zero-size level accepted")
	}
	if _, err := NewLevels(-3); err == nil {
		t.Error("negative-size level accepted")
	}
}

func TestLevelsAccessors(t *testing.T) {
	l := mustLevels(t, 50, 100, 350) // the Sec. 5.3 structure
	if got := l.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := l.Total(); got != 500 {
		t.Errorf("Total = %d, want 500", got)
	}
	wantCum := []int{50, 150, 500}
	for i, w := range wantCum {
		if got := l.CumSize(i); got != w {
			t.Errorf("CumSize(%d) = %d, want %d", i, got, w)
		}
	}
	if lo, hi := l.Span(0); lo != 0 || hi != 50 {
		t.Errorf("Span(0) = [%d, %d), want [0, 50)", lo, hi)
	}
	if lo, hi := l.Span(2); lo != 150 || hi != 500 {
		t.Errorf("Span(2) = [%d, %d), want [150, 500)", lo, hi)
	}
}

func TestSizesIsACopy(t *testing.T) {
	l := mustLevels(t, 1, 2)
	s := l.Sizes()
	s[0] = 99
	if l.Size(0) != 1 {
		t.Error("Sizes() leaked internal storage")
	}
}

func TestLevelOf(t *testing.T) {
	l := mustLevels(t, 50, 100, 350)
	cases := []struct{ block, want int }{
		{0, 0}, {49, 0}, {50, 1}, {149, 1}, {150, 2}, {499, 2},
	}
	for _, tc := range cases {
		got, err := l.LevelOf(tc.block)
		if err != nil {
			t.Fatalf("LevelOf(%d): %v", tc.block, err)
		}
		if got != tc.want {
			t.Errorf("LevelOf(%d) = %d, want %d", tc.block, got, tc.want)
		}
	}
	if _, err := l.LevelOf(-1); err == nil {
		t.Error("LevelOf(-1) succeeded, want error")
	}
	if _, err := l.LevelOf(500); err == nil {
		t.Error("LevelOf(Total) succeeded, want error")
	}
}

func TestUniformLevels(t *testing.T) {
	l, err := UniformLevels(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	if l.Count() != 5 || l.Total() != 1000 {
		t.Errorf("UniformLevels(5, 200) = %v", l)
	}
	if _, err := UniformLevels(0, 5); err == nil {
		t.Error("UniformLevels(0, 5) succeeded, want error")
	}
	if _, err := UniformLevels(5, 0); err == nil {
		t.Error("UniformLevels(5, 0) succeeded, want error")
	}
}

func TestValidLevel(t *testing.T) {
	l := mustLevels(t, 3, 3)
	if err := l.ValidLevel(0); err != nil {
		t.Errorf("ValidLevel(0): %v", err)
	}
	if err := l.ValidLevel(1); err != nil {
		t.Errorf("ValidLevel(1): %v", err)
	}
	if err := l.ValidLevel(2); err == nil {
		t.Error("ValidLevel(2) succeeded, want error")
	}
	if err := l.ValidLevel(-1); err == nil {
		t.Error("ValidLevel(-1) succeeded, want error")
	}
}

func TestQuickLevelOfConsistentWithSpan(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(20)
		}
		l, err := NewLevels(sizes...)
		if err != nil {
			return false
		}
		b := rng.Intn(l.Total())
		k, err := l.LevelOf(b)
		if err != nil {
			return false
		}
		lo, hi := l.Span(k)
		return lo <= b && b < hi
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestLevelsString(t *testing.T) {
	l := mustLevels(t, 1, 2)
	if got := l.String(); got != "Levels{n=2, N=3, sizes=[1 2]}" {
		t.Errorf("String() = %q", got)
	}
}
