package model

import (
	"math"
	"testing"
)

func TestAnalyzeSequenceFig2(t *testing.T) {
	seq := fig2Sequence()
	st := AnalyzeSequence(seq)
	if st.N != 7 || st.M != 4 || st.Horizon != 4.0 {
		t.Fatalf("shape = %+v", st)
	}
	// Consecutive same-server pairs: (r5,r6) only → 1 of 6.
	if math.Abs(st.StayFrac-1.0/6) > 1e-12 {
		t.Errorf("stay = %v, want 1/6", st.StayFrac)
	}
	// s2 carries 3 of 7.
	if st.Busiest != 2 || math.Abs(st.TopShare-3.0/7) > 1e-12 {
		t.Errorf("busiest = s%d (%v)", st.Busiest, st.TopShare)
	}
	// Revisit gaps: 1.4, 2.1, 0.6, 3.2 → median (upper) 2.1.
	if math.Abs(st.MedianRev-2.1) > 1e-12 {
		t.Errorf("median revisit = %v, want 2.1", st.MedianRev)
	}
	if st.Untouched != 0 {
		t.Errorf("untouched = %d", st.Untouched)
	}
}

func TestAnalyzeSequenceEmpty(t *testing.T) {
	st := AnalyzeSequence(&Sequence{M: 3, Origin: 1})
	if st.N != 0 || st.Untouched != 3 || !math.IsNaN(st.MedianRev) {
		t.Errorf("empty stats = %+v", st)
	}
}
