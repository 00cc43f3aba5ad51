// Package model defines the problem instance types shared by every algorithm
// in this repository: servers, timed requests, the homogeneous cost model of
// the paper, schedules (cache intervals plus transfers), schedule validation
// and pricing, and the space-time graph of Definition 2.
//
// Conventions follow the paper ("Data Caching in Next Generation Mobile Cloud
// Services, Online vs. Off-line", ICPP 2017):
//
//   - Servers are identified 1..m, written s^j in the paper.
//   - The shared data item initially resides at an origin server (the paper's
//     s^1) at time 0; the boundary request r_0 = (origin, 0).
//   - Request times are strictly increasing and strictly positive.
//   - Caching costs Mu per unit time per live copy; any transfer costs
//     Lambda. Replication and deletion are free (folded into the transfer
//     cost, as in Section III).
package model

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ServerID identifies a cache server. Valid IDs are 1..m, matching the
// paper's superscript notation s^j. The zero value is invalid.
type ServerID int

// Request is one timed access r_i = (s_i, t_i) to the shared data item.
type Request struct {
	Server ServerID // s_i, the server the request arrives at
	Time   float64  // t_i, strictly increasing along a sequence
}

// Sequence is a problem instance: m fully connected servers, an origin
// holding the single initial copy at time 0, and a time-ordered request
// vector R = <r_1, ..., r_n>.
type Sequence struct {
	M        int       // number of servers, m >= 1
	Origin   ServerID  // initial holder of the data item (the paper's s^1)
	Requests []Request // strictly increasing times, all > 0
}

// N returns the number of requests n.
func (s *Sequence) N() int { return len(s.Requests) }

// End returns t_n, the time of the last request, or 0 for an empty sequence.
// Feasible schedules must keep at least one copy alive on [0, End].
func (s *Sequence) End() float64 {
	if len(s.Requests) == 0 {
		return 0
	}
	return s.Requests[len(s.Requests)-1].Time
}

// Validate checks the structural invariants of the instance: server count,
// origin in range, every request server in range, and strictly increasing
// positive request times.
func (s *Sequence) Validate() error {
	if s.M < 1 {
		return fmt.Errorf("model: sequence has m=%d servers, need at least 1", s.M)
	}
	if s.Origin < 1 || int(s.Origin) > s.M {
		return fmt.Errorf("model: origin %d out of range 1..%d", s.Origin, s.M)
	}
	prev := 0.0
	for i, r := range s.Requests {
		if r.Server < 1 || int(r.Server) > s.M {
			return fmt.Errorf("model: request %d at server %d out of range 1..%d", i+1, r.Server, s.M)
		}
		if r.Time <= prev {
			return fmt.Errorf("model: request %d time %v not strictly after %v", i+1, r.Time, prev)
		}
		if math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
			return fmt.Errorf("model: request %d time %v is not finite", i+1, r.Time)
		}
		prev = r.Time
	}
	return nil
}

// Clone returns a deep copy of the sequence.
func (s *Sequence) Clone() *Sequence {
	c := &Sequence{M: s.M, Origin: s.Origin, Requests: make([]Request, len(s.Requests))}
	copy(c.Requests, s.Requests)
	return c
}

// NoPrev marks a request with no same-server predecessor (the paper's dummy
// r_{-j} at time -infinity).
const NoPrev = -1

// Prev computes the predecessor table p(i) for i = 1..n using the paper's
// boundary conventions: entry 0 corresponds to the boundary request
// r_0 = (Origin, 0); p(i) = 0 when the previous request on s_i is r_0 itself
// (that is, s_i == Origin and no earlier real request hit it); and
// p(i) = NoPrev when server s_i has never been touched (the dummy request at
// -infinity). The returned slice has length n+1; index 0 is unused.
func (s *Sequence) Prev() []int {
	n := len(s.Requests)
	p := make([]int, n+1)
	last := make([]int, s.M+1)
	for j := range last {
		last[j] = NoPrev
	}
	last[s.Origin] = 0
	for i := 1; i <= n; i++ {
		sv := s.Requests[i-1].Server
		p[i] = last[sv]
		last[sv] = i
	}
	return p
}

// TimeOf returns t_i under the extended indexing used by the recurrences:
// t_0 = 0 (boundary request at the origin) and t_i for a real request
// i in 1..n. Calling it with NoPrev returns -Inf, the paper's dummy time.
func (s *Sequence) TimeOf(i int) float64 {
	switch {
	case i == NoPrev:
		return math.Inf(-1)
	case i == 0:
		return 0
	default:
		return s.Requests[i-1].Time
	}
}

// ServerOf returns s_i under the extended indexing: index 0 maps to the
// origin. Calling it with NoPrev returns 0 (no server).
func (s *Sequence) ServerOf(i int) ServerID {
	switch {
	case i == NoPrev:
		return 0
	case i == 0:
		return s.Origin
	default:
		return s.Requests[i-1].Server
	}
}

// Sigma returns the server-interval table σ_i = t_i - t_{p(i)} for i = 1..n
// (index 0 unused). A request with no predecessor gets +Inf.
func (s *Sequence) Sigma() []float64 {
	p := s.Prev()
	sig := make([]float64, len(p))
	for i := 1; i < len(p); i++ {
		if p[i] == NoPrev {
			sig[i] = math.Inf(1)
		} else {
			sig[i] = s.TimeOf(i) - s.TimeOf(p[i])
		}
	}
	return sig
}

// CostModel is the homogeneous cost model of Section III: caching costs Mu
// per unit time per live copy on any server, and transferring the item
// between any pair of distinct servers costs Lambda.
type CostModel struct {
	Mu     float64 // caching cost rate μ > 0
	Lambda float64 // uniform transfer cost λ > 0
}

// Validate rejects non-positive or non-finite rates.
func (c CostModel) Validate() error {
	if !(c.Mu > 0) || math.IsInf(c.Mu, 0) {
		return fmt.Errorf("model: caching rate Mu=%v must be positive and finite", c.Mu)
	}
	if !(c.Lambda > 0) || math.IsInf(c.Lambda, 0) {
		return fmt.Errorf("model: transfer cost Lambda=%v must be positive and finite", c.Lambda)
	}
	return nil
}

// Delta returns the speculative window Δt = λ/μ of Section V: the longest
// time for which keeping a copy alive is no more expensive than one transfer.
func (c CostModel) Delta() float64 { return c.Lambda / c.Mu }

// Price is the cost of holding copies for held time in total and making
// transfers transfers: Mu*held + Lambda*transfers. Schedule.Cost and
// engine.Stream.Cost both price through it, so they agree bit for bit
// whenever they sum the same held time.
func (c CostModel) Price(held float64, transfers int) float64 {
	return c.Mu*held + c.Lambda*float64(transfers)
}

// Unit is the cost model with Mu = Lambda = 1 used throughout the paper's
// worked examples (Fig. 2 and Fig. 6).
var Unit = CostModel{Mu: 1, Lambda: 1}

// MarginalBounds returns the marginal cost bounds b_i = min(λ, μσ_i)
// (Definition 4) for i = 1..n; index 0 is unused and zero.
func MarginalBounds(seq *Sequence, cm CostModel) []float64 {
	sig := seq.Sigma()
	b := make([]float64, len(sig))
	for i := 1; i < len(sig); i++ {
		b[i] = math.Min(cm.Lambda, cm.Mu*sig[i])
	}
	return b
}

// RunningBounds returns the running bounds B_i = Σ_{j<=i} b_j
// (Definition 5) for i = 0..n, with B_0 = 0. B_n lower-bounds the optimal
// cost of any schedule.
func RunningBounds(seq *Sequence, cm CostModel) []float64 {
	b := MarginalBounds(seq, cm)
	B := make([]float64, len(b))
	for i := 1; i < len(b); i++ {
		B[i] = B[i-1] + b[i]
	}
	return B
}

// ErrEmptySequence is returned by algorithms that need at least one request.
var ErrEmptySequence = errors.New("model: sequence has no requests")

// SortRequests orders requests by time in place. It is a convenience for
// generators that synthesize requests out of order; Validate still requires
// strictly increasing times afterwards (ties must be perturbed by the
// caller).
func SortRequests(reqs []Request) {
	sort.Slice(reqs, func(a, b int) bool { return reqs[a].Time < reqs[b].Time })
}
