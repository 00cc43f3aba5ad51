package stats

import (
	"math"
	"testing"
	"unicode/utf8"
)

func TestSparklineShape(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("length = %d runes: %q", utf8.RuneCountInString(s), s)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("endpoints = %q", s)
	}
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Errorf("monotone input rendered non-monotone: %q", s)
		}
	}
}

func TestSparklineDegenerate(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty sparkline not empty")
	}
	flat := Sparkline([]float64{2, 2, 2})
	if utf8.RuneCountInString(flat) != 3 {
		t.Errorf("flat = %q", flat)
	}
	for _, r := range flat {
		if r != []rune(flat)[0] {
			t.Errorf("flat series should render uniform: %q", flat)
		}
	}
	withNaN := Sparkline([]float64{1, math.NaN(), 3})
	if []rune(withNaN)[1] != ' ' {
		t.Errorf("NaN should render as space: %q", withNaN)
	}
	allNaN := Sparkline([]float64{math.NaN(), math.NaN()})
	if allNaN != "  " {
		t.Errorf("all-NaN = %q", allNaN)
	}
}
