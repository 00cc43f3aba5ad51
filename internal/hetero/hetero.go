// Package hetero extends the caching model beyond the paper's homogeneity
// assumption: per-server caching rates μ_j and a per-pair transfer cost
// matrix λ[j][k]. The paper's O(mn) recurrences rely on homogeneity (every
// transfer interchangeable, every caching second interchangeable); under
// heterogeneous costs we instead compute the optimum exactly by dynamic
// programming over live-copy subsets, the generalization of
// offline.SubsetOptimal.
//
// The DP optimizes over standard-form schedules — transfers only at request
// times into the requesting server, deletions only at request times. Under
// homogeneous costs that restriction is provably lossless (Observation 1);
// under mildly heterogeneous costs it remains the natural policy class and
// is what experiment E9 uses to measure how fast the homogeneous optimum
// degrades as cost skew grows.
package hetero

import (
	"fmt"
	"math"
	"math/bits"

	"datacache/internal/model"
)

// Model is a heterogeneous cost model over m servers. Index 0 is unused so
// that server IDs index directly.
type Model struct {
	Mu     []float64   // Mu[j] is server j's caching rate, length m+1
	Lambda [][]float64 // Lambda[j][k] is the j->k transfer cost, (m+1)x(m+1)
}

// NewUniform builds a heterogeneous model equal to the homogeneous one —
// the degenerate case in which Optimal must match offline.FastDP exactly.
func NewUniform(m int, cm model.CostModel) *Model {
	h := &Model{Mu: make([]float64, m+1), Lambda: make([][]float64, m+1)}
	for j := 1; j <= m; j++ {
		h.Mu[j] = cm.Mu
		h.Lambda[j] = make([]float64, m+1)
		for k := 1; k <= m; k++ {
			if j != k {
				h.Lambda[j][k] = cm.Lambda
			}
		}
	}
	h.Lambda[0] = make([]float64, m+1)
	return h
}

// Perturb scales every rate by an independent factor in [1-eps, 1+eps],
// using the caller's deterministic source, for the E9 skew sweep.
func (h *Model) Perturb(eps float64, next func() float64) {
	for j := 1; j < len(h.Mu); j++ {
		h.Mu[j] *= 1 + eps*(2*next()-1)
		for k := 1; k < len(h.Lambda[j]); k++ {
			if j != k {
				h.Lambda[j][k] *= 1 + eps*(2*next()-1)
			}
		}
	}
}

// Validate checks dimensions and positivity.
func (h *Model) Validate(m int) error {
	if len(h.Mu) != m+1 || len(h.Lambda) != m+1 {
		return fmt.Errorf("hetero: model sized for %d servers, want %d", len(h.Mu)-1, m)
	}
	for j := 1; j <= m; j++ {
		if !(h.Mu[j] > 0) {
			return fmt.Errorf("hetero: Mu[%d] = %v must be positive", j, h.Mu[j])
		}
		if len(h.Lambda[j]) != m+1 {
			return fmt.Errorf("hetero: Lambda[%d] has %d entries, want %d", j, len(h.Lambda[j]), m+1)
		}
		for k := 1; k <= m; k++ {
			if j != k && !(h.Lambda[j][k] > 0) {
				return fmt.Errorf("hetero: Lambda[%d][%d] = %v must be positive", j, k, h.Lambda[j][k])
			}
		}
	}
	return nil
}

// MaxServers bounds the exact DP (Θ(3^m) per request).
const MaxServers = 14

// Optimal computes the minimum standard-form service cost under the
// heterogeneous model by subset DP: between consecutive requests each live
// copy is either kept (paying its own rate) or dropped; a missed request is
// served by the cheapest transfer from a kept copy.
func Optimal(seq *model.Sequence, h *Model) (float64, error) {
	if err := seq.Validate(); err != nil {
		return 0, err
	}
	if err := h.Validate(seq.M); err != nil {
		return 0, err
	}
	if seq.M > MaxServers {
		return 0, fmt.Errorf("hetero: exact DP limited to m <= %d servers, got %d", MaxServers, seq.M)
	}
	m := seq.M
	size := 1 << m
	// keepCost[set] = Σ_{j in set} Mu[j], precomputed incrementally.
	keepRate := make([]float64, size)
	for set := 1; set < size; set++ {
		low := set & (-set)
		j := bits.TrailingZeros(uint(set)) + 1
		keepRate[set] = keepRate[set^low] + h.Mu[j]
	}
	cur := make([]float64, size)
	nxt := make([]float64, size)
	for i := range cur {
		cur[i] = math.Inf(1)
	}
	cur[1<<(seq.Origin-1)] = 0

	tPrev := 0.0
	for _, req := range seq.Requests {
		dt := req.Time - tPrev
		tPrev = req.Time
		reqBit := 1 << (req.Server - 1)
		for i := range nxt {
			nxt[i] = math.Inf(1)
		}
		for set := 1; set < size; set++ {
			base := cur[set]
			if math.IsInf(base, 1) {
				continue
			}
			for keep := set; keep > 0; keep = (keep - 1) & set {
				cost := base + keepRate[keep]*dt
				after := keep
				if keep&reqBit == 0 {
					cost += cheapestTransfer(h, keep, int(req.Server))
					after |= reqBit
				}
				if cost < nxt[after] {
					nxt[after] = cost
				}
			}
		}
		cur, nxt = nxt, cur
	}
	best := math.Inf(1)
	for _, v := range cur {
		if v < best {
			best = v
		}
	}
	if len(seq.Requests) == 0 {
		best = 0
	}
	return best, nil
}

// cheapestTransfer returns min over sources in the keep set of λ[src][dst].
func cheapestTransfer(h *Model, keep, dst int) float64 {
	best := math.Inf(1)
	for s := keep; s != 0; s &= s - 1 {
		j := bits.TrailingZeros(uint(s)) + 1
		if c := h.Lambda[j][dst]; c < best {
			best = c
		}
	}
	return best
}

// PriceSchedule prices an arbitrary schedule under the heterogeneous model.
func PriceSchedule(s *model.Schedule, h *Model) float64 {
	total := 0.0
	for _, c := range s.Caches {
		total += h.Mu[c.Server] * c.Length()
	}
	for _, tr := range s.Transfers {
		total += h.Lambda[tr.From][tr.To]
	}
	return total
}
