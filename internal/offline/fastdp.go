// Package offline implements the paper's off-line algorithms for the
// cost-driven data caching problem:
//
//   - FastDP — the O(mn) time-and-space dynamic program of Section IV
//     (Recurrences (2) and (5) plus the Theorem-2 pointer structure), the
//     paper's Contribution 1, with optimal-schedule reconstruction by
//     backtracking.
//   - NaiveDP — the "straightforward implementation" the paper mentions,
//     evaluating the same recurrences in O(n²) by scanning for the cover
//     index set π(i) directly. It is the baseline for the speedup claim.
//   - SubsetOptimal — an independent exact oracle that enumerates keep-sets
//     between consecutive requests (exponential in m), used by tests to
//     certify optimality of the recurrences on small instances.
//
// All three agree on every instance; the property tests in this package
// assert exactly that.
package offline

import (
	"math"

	"datacache/internal/model"
)

// branch identifies which alternative of Recurrence (2) or (5) achieved the
// minimum, for schedule reconstruction.
type branch int8

const (
	branchNone      branch = iota // C(0) / unset
	branchTransfer                // C(i) = C(i-1) + μδt + λ  (Lemma 2)
	branchCache                   // C(i) = D(i)
	dBranchBoundary               // D(i) = C(p(i)) + μσ_i + B_{i-1} - B_{p(i)}  (Lemma 3)
	dBranchPivot                  // D(i) = D(κ) + μσ_i + B_{i-1} - B_κ  (Lemma 4)
)

// Result holds the DP vectors of one off-line optimization together with the
// decision trail needed to rebuild an optimal schedule.
type Result struct {
	Seq   *model.Sequence
	Model model.CostModel

	// C[i] is the optimal cost of serving r_0..r_i (Definition 6); C[n] is
	// the answer. D[i] is the semi-optimal cost with r_i served by cache
	// (Definition 7); +Inf where no cache service is possible.
	C, D []float64

	// B[i] is the running bound (Definition 5); B[n] lower-bounds C[n].
	B []float64

	cBranch []branch // how C[i] was achieved
	dBranch []branch // how D[i] was achieved
	dPivot  []int    // κ when dBranch[i] == dBranchPivot
	prev    []int    // p(i) table
}

// Cost returns the optimal total service cost C(n).
func (r *Result) Cost() float64 {
	return r.C[len(r.C)-1]
}

// FastDP runs the O(mn) algorithm of Section IV and returns the DP vectors
// plus reconstruction state. It errors on invalid instances; an empty request
// vector yields cost 0.
func FastDP(seq *model.Sequence, cm model.CostModel) (*Result, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	n := seq.N()
	res := newResult(seq, cm)
	if n == 0 {
		return res, nil
	}

	// Pre-scan (Theorem 2): A[i][j] = index of the last request on server j
	// at or before request i (0 = boundary r_0 at the origin, NoPrev = the
	// dummy at -infinity); next[q] = the next request on q's server after q.
	// A takes O(mn) space and both passes take O(mn) time, exactly as in the
	// theorem.
	m := seq.M
	a := make([]int32, (n+1)*(m+1))
	row := func(i int) []int32 { return a[i*(m+1) : (i+1)*(m+1)] }
	r0 := row(0)
	for j := 1; j <= m; j++ {
		r0[j] = int32(model.NoPrev)
	}
	r0[seq.Origin] = 0
	for i := 1; i <= n; i++ {
		copy(row(i), row(i-1))
		row(i)[seq.Requests[i-1].Server] = int32(i)
	}
	next := make([]int, n+1)
	for i := range next {
		next[i] = -1
	}
	for i := 1; i <= n; i++ {
		if p := res.prev[i]; p >= 0 {
			next[p] = i
		}
	}

	for i := 1; i <= n; i++ {
		res.relaxD(i, func(p int, yield func(kappa int)) {
			// The unique π(i) candidate on server j is the successor (on j)
			// of the last request on j at or before p(i). The own-server
			// candidate is κ = p(i) itself.
			yield(p)
			ap := row(p)
			si := seq.Requests[i-1].Server
			for j := model.ServerID(1); int(j) <= m; j++ {
				if j == si {
					continue
				}
				q := int(ap[j])
				if q == model.NoPrev {
					continue // first request on j has D = +Inf anyway
				}
				if k := next[q]; k >= 1 && k < i {
					yield(k)
				}
			}
		})
		res.relaxC(i)
	}
	return res, nil
}

// newResult allocates the vectors and fills the parts shared by FastDP and
// NaiveDP (bounds, predecessor table, base cases).
func newResult(seq *model.Sequence, cm model.CostModel) *Result {
	n := seq.N()
	res := &Result{
		Seq:     seq,
		Model:   cm,
		C:       make([]float64, n+1),
		D:       make([]float64, n+1),
		B:       model.RunningBounds(seq, cm),
		cBranch: make([]branch, n+1),
		dBranch: make([]branch, n+1),
		dPivot:  make([]int, n+1),
		prev:    seq.Prev(),
	}
	for i := 1; i <= n; i++ {
		res.D[i] = math.Inf(1)
	}
	return res
}

// relaxD computes D[i] from Recurrence (5). candidates enumerates the κ
// candidates given p(i); the boundary C(p(i)) term is always considered.
func (r *Result) relaxD(i int, candidates func(p int, yield func(kappa int))) {
	p := r.prev[i]
	if p == model.NoPrev {
		// First request on its server: the dummy r_{-j} at -infinity keeps
		// D(i) = +Inf (the request must be served by a transfer).
		return
	}
	seq, cm := r.Seq, r.Model
	sigma := seq.TimeOf(i) - seq.TimeOf(p)
	base := cm.Mu*sigma + r.B[i-1]

	best := r.C[p] + base - r.B[p]
	bestBranch, bestPivot := dBranchBoundary, 0
	candidates(p, func(kappa int) {
		if kappa < 1 {
			return
		}
		if v := r.D[kappa] + base - r.B[kappa]; v < best {
			best, bestBranch, bestPivot = v, dBranchPivot, kappa
		}
	})
	r.D[i] = best
	r.dBranch[i] = bestBranch
	r.dPivot[i] = bestPivot
}

// relaxC computes C[i] from Recurrence (2). Ties prefer the cache branch:
// when s_i == s_{i-1} the transfer branch would synthesize a self-transfer,
// and in that case D(i) is never worse (it reuses the same caching without
// paying λ).
func (r *Result) relaxC(i int) {
	seq, cm := r.Seq, r.Model
	viaTransfer := r.C[i-1] + cm.Mu*(seq.TimeOf(i)-seq.TimeOf(i-1)) + cm.Lambda
	if r.D[i] <= viaTransfer {
		r.C[i] = r.D[i]
		r.cBranch[i] = branchCache
	} else {
		r.C[i] = viaTransfer
		r.cBranch[i] = branchTransfer
	}
}

// NaiveDP evaluates the identical recurrence system the "straightforward"
// way named in Section IV: for every request it checks every previous value
// for membership in the cover index set π(i) (Definition 8), which is Θ(n²)
// regardless of workload. It is the baseline of experiment E5. All
// implementations minimize over the same candidate set, so the C and D
// vectors agree exactly (reconstructed schedules may differ between
// equal-cost optima).
func NaiveDP(seq *model.Sequence, cm model.CostModel) (*Result, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	res := newResult(seq, cm)
	for i := 1; i <= seq.N(); i++ {
		res.relaxD(i, func(p int, yield func(kappa int)) {
			// π(i) membership: p(k) < p(i) <= k < i, with NoPrev comparing
			// as -∞. The own-server candidate κ = p(i) is the k = p
			// iteration (p(p) < p always holds).
			for k := 1; k < i; k++ {
				if k >= p && res.prev[k] < p {
					yield(k)
				}
			}
		})
		res.relaxC(i)
	}
	return res, nil
}

// SweepDP is the middle ground between NaiveDP and FastDP: it scans only
// k in [p(i), i-1], relying on the π(i) lower limit to cut the walk. The
// scan lengths telescope — an index j is jumped over at most once per
// server (only the first later request of each server has p(i) <= j) — so
// SweepDP is in fact O(mn) *amortized* with no pre-scan structures and O(n)
// space. Experiment E5 reports it alongside the other two: the paper's
// "straightforward implementation runs in O(n²)" statement only applies to
// the full scan of NaiveDP, a finding EXPERIMENTS.md discusses.
func SweepDP(seq *model.Sequence, cm model.CostModel) (*Result, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	res := newResult(seq, cm)
	for i := 1; i <= seq.N(); i++ {
		res.relaxD(i, func(p int, yield func(kappa int)) {
			for k := p; k < i; k++ {
				if k >= 1 && res.prev[k] < p {
					yield(k)
				}
			}
		})
		res.relaxC(i)
	}
	return res, nil
}
