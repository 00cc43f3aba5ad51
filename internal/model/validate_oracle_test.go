package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// validateLinear is Validate with every lookup a linear scan, as it was
// first written: the reference its binary-search lookups must agree with.
func validateLinear(s *Schedule, seq *Sequence) error {
	if err := seq.Validate(); err != nil {
		return err
	}
	norm := &Schedule{
		Caches:    append([]CacheInterval(nil), s.Caches...),
		Transfers: append([]Transfer(nil), s.Transfers...),
	}
	norm.Normalize()

	// 4 (checked first so rule 1 may rely on it): transfer sources live.
	for _, tr := range norm.Transfers {
		if tr.From == tr.To {
			return fmt.Errorf("model: transfer at t=%v from server %d to itself", tr.Time, tr.From)
		}
		if !norm.HeldAt(tr.From, tr.Time) {
			return fmt.Errorf("model: transfer at t=%v sourced from server %d which holds no copy then", tr.Time, tr.From)
		}
	}

	// 1: every request served.
	for i, r := range seq.Requests {
		if norm.HeldAt(r.Server, r.Time) {
			continue
		}
		served := false
		for _, tr := range norm.Transfers {
			if tr.To == r.Server && math.Abs(tr.Time-r.Time) <= timeEps {
				served = true
				break
			}
		}
		if !served {
			return fmt.Errorf("model: request %d at (s%d, t=%v) is not served by cache or transfer", i+1, r.Server, r.Time)
		}
	}

	// 2: provenance of each maximal interval.
	for _, h := range norm.Caches {
		if h.From <= timeEps {
			if h.Server != seq.Origin {
				return fmt.Errorf("model: cache on server %d starts at t=0 but the origin is %d", h.Server, seq.Origin)
			}
			continue
		}
		ok := false
		for _, tr := range norm.Transfers {
			if tr.To == h.Server && math.Abs(tr.Time-h.From) <= timeEps {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("model: cache on server %d starting at t=%v has no originating transfer", h.Server, h.From)
		}
	}

	// 3: coverage of [0, t_n].
	return coverage(norm.Caches, seq.End())
}

// oracleInstance draws a sequence from time start on whose gaps are
// sometimes below timeEps, so several requests and transfers can fall
// within one tolerance window.
func oracleInstance(rng *rand.Rand, start float64) *Sequence {
	m := 1 + rng.Intn(6)
	seq := &Sequence{M: m, Origin: ServerID(1 + rng.Intn(m))}
	t := start
	for i, n := 0, rng.Intn(40); i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			t += timeEps * (0.1 + rng.Float64())
		case 1:
			t += float64(1 + rng.Intn(3))
		default:
			t += rng.ExpFloat64()
		}
		seq.Requests = append(seq.Requests, Request{Server: ServerID(1 + rng.Intn(m)), Time: t})
	}
	return seq
}

// oracleSchedule serves seq feasibly: each miss is a transfer from a
// random holder, which is sometimes dropped right after (a migration),
// and other holders are sometimes dropped too.
func oracleSchedule(rng *rand.Rand, seq *Sequence) *Schedule {
	s := &Schedule{}
	held := map[ServerID]float64{seq.Origin: 0} // holder -> start of its interval
	drop := func(srv ServerID, at float64) {
		s.AddCache(srv, held[srv], at)
		delete(held, srv)
	}
	for _, r := range seq.Requests {
		if _, ok := held[r.Server]; ok {
			continue
		}
		var src ServerID
		for srv := ServerID(1); int(srv) <= seq.M; srv++ {
			if _, ok := held[srv]; ok && (src == 0 || rng.Intn(2) == 0) {
				src = srv
			}
		}
		s.AddTransfer(src, r.Server, r.Time)
		held[r.Server] = r.Time
		for srv := ServerID(1); int(srv) <= seq.M; srv++ {
			if _, ok := held[srv]; ok && srv != r.Server && (srv == src && rng.Intn(2) == 0 || rng.Intn(5) == 0) {
				drop(srv, r.Time)
			}
		}
	}
	for srv := ServerID(1); int(srv) <= seq.M; srv++ {
		if _, ok := held[srv]; ok {
			drop(srv, seq.End())
		}
	}
	rng.Shuffle(len(s.Caches), func(i, j int) { s.Caches[i], s.Caches[j] = s.Caches[j], s.Caches[i] })
	return s
}

// mutateSchedule applies one random edit that may or may not break
// feasibility: it drops, adds, reverses or moves an interval or a
// transfer, by amounts on both sides of timeEps or to exactly timeEps
// from a request, or plants a NaN or an infinity.
func mutateSchedule(rng *rand.Rand, s *Schedule, seq *Sequence) {
	nudges := []float64{timeEps / 2, -timeEps / 2, 2 * timeEps, -2 * timeEps, 0.25, -0.25}
	nudge := func() float64 { return nudges[rng.Intn(len(nudges))] }
	// edge returns a time timeEps from a request, preferring requests on
	// srv within [lo, hi], then any on srv, then any at all (v if none).
	edge := func(srv ServerID, lo, hi, v float64) float64 {
		var in, on, all []float64
		for _, r := range seq.Requests {
			all = append(all, r.Time)
			if r.Server == srv {
				on = append(on, r.Time)
				if lo <= r.Time && r.Time <= hi {
					in = append(in, r.Time)
				}
			}
		}
		for _, ts := range [][]float64{in, on, all} {
			if len(ts) > 0 {
				return ts[rng.Intn(len(ts))] + []float64{-timeEps, timeEps}[rng.Intn(2)]
			}
		}
		return v
	}
	server := func() ServerID { return ServerID(1 + rng.Intn(seq.M+1)) } // m+1 is out of range
	at := func() float64 { return rng.Float64() * (seq.End() + 1) }
	nc, nt := len(s.Caches), len(s.Transfers)
	switch op := rng.Intn(15); {
	case op == 0 && nc > 0:
		i := rng.Intn(nc)
		s.Caches = append(s.Caches[:i], s.Caches[i+1:]...)
	case op == 1 && nt > 0:
		i := rng.Intn(nt)
		s.Transfers = append(s.Transfers[:i], s.Transfers[i+1:]...)
	case op == 2 && nc > 0:
		s.Caches[rng.Intn(nc)].From += nudge()
	case op == 3 && nc > 0:
		s.Caches[rng.Intn(nc)].To += nudge()
	case op == 4 && nt > 0:
		s.Transfers[rng.Intn(nt)].Time += nudge()
	case op == 5 && nt > 0:
		tr := &s.Transfers[rng.Intn(nt)]
		if rng.Intn(2) == 0 {
			tr.From = server()
		} else {
			tr.To = server()
		}
	case op == 6 && nc > 0:
		h := &s.Caches[rng.Intn(nc)]
		h.From, h.To = h.To, h.From
	case op == 7:
		from := at()
		s.AddCache(server(), from, from+rng.Float64())
	case op == 8:
		s.AddTransfer(server(), server(), at())
	case op == 9 && nc > 0:
		h := s.Caches[rng.Intn(nc)]
		s.AddCache(h.Server, h.To, h.To) // zero length
	case op == 10 && nc > 0:
		h := &s.Caches[rng.Intn(nc)]
		h.To = []float64{math.NaN(), math.Inf(1)}[rng.Intn(2)]
	case op == 11 && nt > 0:
		s.Transfers[rng.Intn(nt)].Time = math.NaN()
	case op == 12 && nt > 0:
		tr := &s.Transfers[rng.Intn(nt)]
		tr.Time = edge(tr.To, tr.Time, tr.Time, tr.Time)
	case op == 13 && nc > 0:
		h := &s.Caches[rng.Intn(nc)]
		h.From = edge(h.Server, h.From, h.To, h.From)
	case op == 14 && nc > 0:
		h := &s.Caches[rng.Intn(nc)]
		h.To = edge(h.Server, h.From, h.To, h.To)
	}
}

// TestValidateMatchesLinearOracle requires Validate to accept exactly the
// schedules validateLinear accepts, and to reject the rest with the same
// error, on feasible schedules and on schedules with 1-4 random edits.
// Edited instances may start within timeEps of t=0, where Validate takes
// every interval for the origin's and the float grid is fine enough to
// put a transfer exactly timeEps from a request.
func TestValidateMatchesLinearOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	accepted, rejected := 0, 0
	for trial := 0; trial < 20000; trial++ {
		start := 0.5
		if trial%5 != 0 {
			start = 0
		}
		seq := oracleInstance(rng, start)
		s := oracleSchedule(rng, seq)
		if trial%5 != 0 {
			for e := rng.Intn(4); e >= 0; e-- {
				mutateSchedule(rng, s, seq)
			}
		} else if err := s.Validate(seq); err != nil {
			t.Fatalf("trial %d: feasible schedule rejected: %v\n%v\n%v", trial, err, seq.Requests, s)
		}
		got, want := fmt.Sprint(s.Validate(seq)), fmt.Sprint(validateLinear(s, seq))
		if got != want {
			t.Fatalf("trial %d: Validate says %q, the linear oracle %q\nrequests %v\n%v", trial, got, want, seq.Requests, s)
		}
		if want == "<nil>" {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 4000 || rejected < 4000 {
		t.Fatalf("%d accepted, %d rejected: the mix does not exercise both verdicts", accepted, rejected)
	}
}

// TestLookupsMatchLinearScans compares Validate's binary-search lookups
// with linear scans over normalized schedules, at every interval end and
// transfer time moved by timeEps and at the four float steps on either
// side, where a comparison's tolerance boundary falls.
func TestLookupsMatchLinearScans(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 1000; trial++ {
		seq := oracleInstance(rng, 0)
		s := oracleSchedule(rng, seq)
		for e := rng.Intn(4); e >= 0; e-- {
			mutateSchedule(rng, s, seq)
		}
		s.Normalize()
		var probes []float64
		for _, h := range s.Caches {
			probes = append(probes, h.From-timeEps, h.To+timeEps)
		}
		for _, tr := range s.Transfers {
			probes = append(probes, tr.Time-timeEps, tr.Time+timeEps)
		}
		for _, p := range probes {
			at := p
			for i := 0; i < 4; i++ {
				at = math.Nextafter(at, math.Inf(-1))
			}
			for i := 0; i < 9; i++ {
				for srv := ServerID(0); int(srv) <= seq.M+1; srv++ {
					if got, want := s.heldAt(srv, at), s.HeldAt(srv, at); got != want {
						t.Fatalf("trial %d: heldAt(%d, %v) = %v, HeldAt %v\n%v", trial, srv, at, got, want, s)
					}
					near := false
					for _, tr := range s.Transfers {
						near = near || tr.To == srv && math.Abs(tr.Time-at) <= timeEps
					}
					if got := s.transferNear(srv, at); got != near {
						t.Fatalf("trial %d: transferNear(%d, %v) = %v, linear scan %v\n%v", trial, srv, at, got, near, s)
					}
				}
				at = math.Nextafter(at, math.Inf(1))
			}
		}
	}
}
