package model

import (
	"math"
	"testing"
)

func TestMetricsBreakdown(t *testing.T) {
	seq := fig2Sequence()
	s := validSchedule(seq) // hold at origin, transfer everything else
	s.Normalize()
	ms := Metrics(seq, s)
	if len(ms) != seq.M {
		t.Fatalf("metrics for %d servers, want %d", len(ms), seq.M)
	}
	// Origin: holds the copy the entire horizon, serves its own request by
	// cache, sources every transfer.
	origin := ms[seq.Origin-1]
	if origin.Requests != 1 || origin.CacheServed != 1 {
		t.Errorf("origin requests/cacheServed = %d/%d", origin.Requests, origin.CacheServed)
	}
	if origin.TransfersOut != 6 || origin.TransfersIn != 0 {
		t.Errorf("origin transfers = %d out, %d in", origin.TransfersOut, origin.TransfersIn)
	}
	if math.Abs(origin.CachedTime-seq.End()) > 1e-12 || math.Abs(origin.Utilization-1) > 1e-12 {
		t.Errorf("origin cached time/utilization = %v/%v", origin.CachedTime, origin.Utilization)
	}
	// Server 2: three requests, all served by incoming transfers, no cache.
	s2 := ms[1]
	if s2.Requests != 3 || s2.CacheServed != 0 || s2.TransfersIn != 3 {
		t.Errorf("s2 = %+v", s2)
	}
	if s2.CachedTime != 0 || s2.Utilization != 0 {
		t.Errorf("s2 cached = %v", s2.CachedTime)
	}
	total := 0.0
	for _, m := range ms {
		total += m.CachedTime
	}
	if math.Abs(total-seq.End()) > 1e-12 {
		t.Errorf("total cached time = %v, want %v", total, seq.End())
	}
}

func TestMetricsEmptyHorizon(t *testing.T) {
	seq := &Sequence{M: 2, Origin: 1}
	var s Schedule
	ms := Metrics(seq, &s)
	for _, m := range ms {
		if m.Utilization != 0 || m.CachedTime != 0 || m.Requests != 0 {
			t.Errorf("empty metrics = %+v", m)
		}
	}
}
