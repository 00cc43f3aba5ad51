package model

import (
	"math"
	"math/rand"
	"testing"
)

func TestCursorCostMatchesScheduleCost(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	for trial := 0; trial < 100; trial++ {
		seq := &Sequence{M: 4, Origin: 1}
		tm := 0.0
		for i := 0; i < 20; i++ {
			tm += 0.1 + rng.Float64()
			seq.Requests = append(seq.Requests, Request{
				Server: ServerID(1 + rng.Intn(4)), Time: tm,
			})
		}
		var s Schedule
		s.AddCache(1, 0, seq.End())
		for _, r := range seq.Requests {
			if r.Server != 1 {
				s.AddTransfer(1, r.Server, r.Time)
				if rng.Float64() < 0.5 {
					s.AddCache(r.Server, r.Time, math.Min(seq.End(), r.Time+rng.Float64()))
				}
			}
		}
		s.Normalize()
		cm := CostModel{Mu: 0.5 + rng.Float64(), Lambda: 0.5 + rng.Float64()}
		c := NewCursor(seq, &s, cm)
		if got, want := c.CostThrough(seq.End()), s.Cost(cm); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: cursor cost at the horizon %v != schedule cost %v", trial, got, want)
		}
		// Monotone and bounded partial costs at random probes.
		prev := -1.0
		for _, frac := range []float64{0, 0.2, 0.5, 0.8, 1.0, 1.5} {
			at := frac * seq.End()
			got := c.CostThrough(at)
			if got < prev-1e-9 {
				t.Fatalf("trial %d: CostThrough not monotone at %v", trial, at)
			}
			prev = got
		}
	}
}

func TestCursorPartialCostByHand(t *testing.T) {
	seq := &Sequence{M: 2, Origin: 1, Requests: []Request{{Server: 2, Time: 4}}}
	var s Schedule
	s.AddCache(1, 0, 4)
	s.AddCache(2, 1, 3)
	s.AddTransfer(1, 2, 1)
	s.Normalize()
	cm := CostModel{Mu: 2, Lambda: 5}
	c := NewCursor(seq, &s, cm)
	// At t=2: caching elapsed = 2 (s1) + 1 (s2) = 3 → 6; one transfer → 5.
	if got := c.CostThrough(2); math.Abs(got-11) > 1e-12 {
		t.Errorf("CostThrough(2) = %v, want 11", got)
	}
	// At t=0.5: caching 0.5·2 = 1, no transfers yet.
	if got := c.CostThrough(0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("CostThrough(0.5) = %v, want 1", got)
	}
	// Exactly at the transfer instant it is included.
	if got := c.CostThrough(1); math.Abs(got-(2*1+5)) > 1e-12 {
		t.Errorf("CostThrough(1) = %v, want 7", got)
	}
	if got := c.CostThrough(4); math.Abs(got-(2*6+5)) > 1e-12 {
		t.Errorf("CostThrough(4) = %v, want 17", got)
	}
}

func TestCursorEmptySchedule(t *testing.T) {
	seq := &Sequence{M: 2, Origin: 1}
	var s Schedule
	c := NewCursor(seq, &s, Unit)
	if got := c.CostThrough(1); got != 0 {
		t.Errorf("empty cursor CostThrough(1) = %v, want 0", got)
	}
}
