package cloudsim

import (
	"fmt"
	"math"
	"sort"

	"datacache/internal/model"
)

// Fault is an injected copy loss: whatever copy server holds at time At
// vanishes (machine crash, cache wipe). Faults may hit the last copy — the
// one case the paper's algorithms never face, because their invariant
// guarantees a live copy. Recovery then needs the external storage of
// Definition 2's row 0: the next request re-uploads the item at cost Beta
// (the paper's β, defined in Table II and otherwise unused).
type Fault struct {
	Server model.ServerID
	At     float64
}

// FaultReport is the outcome of a faulty run. Schedules under faults can
// have coverage gaps (no copy anywhere between a total loss and the next
// upload), so costs are accounted directly instead of through the
// feasibility validator.
type FaultReport struct {
	Cost      float64 // caching + transfers + uploads
	Transfers int
	Uploads   int // β-uploads after total copy loss
	Lost      int // faults that actually destroyed a copy
}

// RunWithFaults replays a request sequence through speculative caching at
// the break-even window Δt while injecting copy losses. The policy itself
// is the production SC rule set (window, refresh, expiry); the harness
// layers faults on top:
//
//   - a fault deletes the server's live copy immediately (policy timers for
//     it become stale);
//   - a request arriving when no copy exists anywhere triggers an upload
//     from external storage at cost beta, re-seeding the cluster at the
//     requesting server.
//
// The report's accounting identity — caching time·μ + transfers·λ +
// uploads·β — is checked by tests against an independent recomputation.
func RunWithFaults(seq *model.Sequence, cm model.CostModel, faults []Fault, beta float64) (*FaultReport, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	if beta < 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
		return nil, fmt.Errorf("cloudsim: upload cost β=%v must be finite and non-negative", beta)
	}
	window := cm.Delta()
	fs := append([]Fault(nil), faults...)
	sort.Slice(fs, func(a, b int) bool { return fs[a].At < fs[b].At })
	for _, f := range fs {
		if f.Server < 1 || int(f.Server) > seq.M {
			return nil, fmt.Errorf("cloudsim: fault on server %d out of range", f.Server)
		}
	}

	st := &faultState{
		m:       seq.M,
		window:  window,
		alive:   make([]bool, seq.M+1),
		since:   make([]float64, seq.M+1),
		expiry:  make([]float64, seq.M+1),
		created: make([]float64, seq.M+1),
	}
	st.alive[seq.Origin] = true
	st.expiry[seq.Origin] = window
	rep := &FaultReport{}

	fi := 0
	end := seq.End()
	for _, r := range seq.Requests {
		// Interleave faults and expiries up to the arrival.
		for fi < len(fs) && fs[fi].At < r.Time {
			st.expireUpTo(fs[fi].At, rep, cm)
			if st.alive[fs[fi].Server] {
				// The loss is abrupt: caching was paid up to the fault.
				rep.Cost += cm.Mu * (fs[fi].At - st.since[fs[fi].Server])
				st.alive[fs[fi].Server] = false
				rep.Lost++
			}
			fi++
		}
		st.expireUpTo(r.Time, rep, cm)
		sv := int(r.Server)
		switch {
		case st.alive[sv]:
			st.refresh(sv, r.Time)
		case st.anyAlive():
			src := st.freshest()
			rep.Cost += cm.Lambda
			rep.Transfers++
			st.alive[sv] = true
			st.since[sv] = r.Time
			st.created[sv] = r.Time
			st.refresh(sv, r.Time)
			st.refresh(src, r.Time)
		default:
			// Total loss: re-upload from external storage.
			rep.Cost += beta
			rep.Uploads++
			st.alive[sv] = true
			st.since[sv] = r.Time
			st.created[sv] = r.Time
			st.refresh(sv, r.Time)
		}
	}
	st.expireUpTo(end, rep, cm)
	for j := 1; j <= seq.M; j++ {
		if st.alive[j] {
			rep.Cost += cm.Mu * (end - st.since[j])
		}
	}
	return rep, nil
}

// faultState is a compact SC state machine with direct cost accounting
// (no schedule assembly: faulty runs may not be feasible schedules).
type faultState struct {
	m       int
	window  float64
	alive   []bool
	since   []float64 // caching charged from here
	expiry  []float64
	created []float64
}

func (st *faultState) refresh(j int, t float64) {
	st.expiry[j] = t + st.window
}

func (st *faultState) anyAlive() bool {
	for j := 1; j <= st.m; j++ {
		if st.alive[j] {
			return true
		}
	}
	return false
}

// freshest mirrors the production engine's transfer-source choice: latest
// deadline, ties to the younger copy.
func (st *faultState) freshest() int {
	best := 0
	at, created := math.Inf(-1), math.Inf(-1)
	for j := 1; j <= st.m; j++ {
		if !st.alive[j] {
			continue
		}
		if st.expiry[j] > at || (st.expiry[j] == at && st.created[j] > created) {
			best, at, created = j, st.expiry[j], st.created[j]
		}
	}
	return best
}

// expireUpTo applies SC expiry through time t with the same group rules as
// the production engine: all copies whose deadlines hit the same instant
// are handled together, the youngest surviving when the group would empty
// the cluster. After a fault-induced total loss there is no copy to extend,
// and the cluster simply stays empty until the next upload.
func (st *faultState) expireUpTo(t float64, rep *FaultReport, cm model.CostModel) {
	kill := func(j int, at float64) {
		rep.Cost += cm.Mu * (at - st.since[j])
		st.alive[j] = false
	}
	for {
		at := math.Inf(1)
		for k := 1; k <= st.m; k++ {
			if st.alive[k] && st.expiry[k] < at {
				at = st.expiry[k]
			}
		}
		if math.IsInf(at, 1) || at >= t {
			return
		}
		var group []int
		alive := 0
		for k := 1; k <= st.m; k++ {
			if !st.alive[k] {
				continue
			}
			alive++
			if st.expiry[k] == at {
				group = append(group, k)
			}
		}
		youngest := group[0]
		for _, j := range group {
			if st.created[j] > st.created[youngest] {
				youngest = j
			}
		}
		for _, j := range group {
			if j == youngest {
				continue
			}
			if alive > 1 {
				kill(j, at)
				alive--
			} else {
				st.refresh(j, at)
			}
		}
		if alive > 1 {
			kill(youngest, at)
		} else {
			// Last copy: extend past the horizon of interest in one jump.
			steps := math.Floor((t-at)/st.window) + 1
			st.expiry[youngest] = at + steps*st.window
		}
	}
}
