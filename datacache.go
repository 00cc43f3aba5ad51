// Package datacache is a cost-driven data caching library for mobile cloud
// services, reproducing "Data Caching in Next Generation Mobile Cloud
// Services, Online vs. Off-line" (ICPP 2017).
//
// Unlike classic capacity-oriented caching, the cloud setting has no cache
// size limit: every copy of the shared data item costs money — Mu per unit
// time while cached, Lambda per transfer between servers — and the goal is
// to serve a time-ordered request sequence at minimum total cost by
// migrating, replicating and deleting copies across a fully connected
// cluster.
//
// The package exposes both sides of the paper:
//
//   - Optimize computes the off-line optimum in O(mn) time and space (the
//     paper's Contribution 1) and reconstructs an optimal schedule.
//   - SpeculativeCaching serves requests online with no future knowledge
//     and is provably 3-competitive (Contribution 2): every copy survives
//     a speculative window Δt = Lambda/Mu past its last use.
//
// Quick start:
//
//	seq := &datacache.Sequence{
//		M: 3, Origin: 1,
//		Requests: []datacache.Request{{Server: 2, Time: 1.5}, {Server: 3, Time: 2.0}},
//	}
//	res, err := datacache.Optimize(seq, datacache.Unit)
//	// res.Cost() is the minimum total service cost; res.Schedule() realizes it.
//
//	run, err := datacache.Serve(datacache.SpeculativeCaching{}, seq, datacache.Unit)
//	// run.Stats.Cost <= 3 * res.Cost(), guaranteed.
//
// The heavy lifting lives in internal packages (model, offline, online,
// workload, trajectory, cloudsim, paging, hetero); this package re-exports
// the stable surface a downstream user needs.
package datacache

import (
	"datacache/internal/model"
	"datacache/internal/offline"
	"datacache/internal/online"
)

// Core problem types (see internal/model).
type (
	// ServerID identifies a cache server, 1..M.
	ServerID = model.ServerID
	// Request is one timed access r_i = (s_i, t_i).
	Request = model.Request
	// Sequence is a problem instance: M servers, an origin copy, requests.
	Sequence = model.Sequence
	// CostModel is the homogeneous cost model (Mu caching rate, Lambda
	// transfer cost).
	CostModel = model.CostModel
	// Schedule is a set of cache intervals and transfers; Validate checks
	// feasibility against a Sequence and Cost prices it.
	Schedule = model.Schedule
	// CacheInterval is one H(s, from, to) caching span.
	CacheInterval = model.CacheInterval
	// Transfer is one Tr(from, to, time) copy movement.
	Transfer = model.Transfer
)

// Unit is the Mu = Lambda = 1 cost model used by the paper's examples.
var Unit = model.Unit

// OfflineResult is the outcome of an off-line optimization: the C and D
// vectors of the paper's recurrence system, the optimal cost, and enough
// decision state to reconstruct an optimal schedule.
type OfflineResult = offline.Result

// Optimize computes the minimum total service cost and an optimal schedule
// for a known request sequence using the paper's O(mn) dynamic program.
func Optimize(seq *Sequence, cm CostModel) (*OfflineResult, error) {
	return offline.FastDP(seq, cm)
}

// OptimalCost is a convenience wrapper returning only the optimal cost.
func OptimalCost(seq *Sequence, cm CostModel) (float64, error) {
	res, err := offline.FastDP(seq, cm)
	if err != nil {
		return 0, err
	}
	return res.Cost(), nil
}

// SingleCopyCost computes the optimal cost when replication is forbidden —
// exactly one copy exists at all times. The gap to OptimalCost measures the
// value of replication for the instance.
func SingleCopyCost(seq *Sequence, cm CostModel) (float64, error) {
	return offline.SingleCopyOptimal(seq, cm)
}

// CostBounds are the cheap O(n) envelopes of offline.ComputeBounds: a
// provable lower bound and the cost of a trivial feasible schedule.
type CostBounds = offline.Bounds

// EstimateBounds brackets the optimal cost without running the dynamic
// program — useful for admission control at catalog scale.
func EstimateBounds(seq *Sequence, cm CostModel) (CostBounds, error) {
	return offline.ComputeBounds(seq, cm)
}

// BatchItem and BatchResult parameterize parallel catalog optimization.
type (
	BatchItem   = offline.BatchItem
	BatchResult = offline.BatchResult
)

// OptimizeAll optimizes independent items in parallel with a bounded worker
// pool (workers <= 0 selects GOMAXPROCS); per-item failures are isolated in
// each result's Err.
func OptimizeAll(items []BatchItem, workers int) []BatchResult {
	return offline.OptimizeBatch(items, workers)
}

// Online policy surface (see internal/online).
type (
	// Policy is an online caching policy: it serves requests in time order
	// with no lookahead and returns the schedule it produced. A parsed
	// PolicySpec is one, as are the typed runners below.
	Policy = online.Runner
	// SpeculativeCaching is the paper's 3-competitive SC algorithm; the
	// zero value is the canonical configuration (window Δt = Lambda/Mu,
	// one unbounded epoch). Set Window for the TTL(τ) generalization or
	// EpochTransfers for epoch restarts.
	SpeculativeCaching = online.SpeculativeCaching
	// AlwaysMigrate keeps a single nomadic copy (baseline).
	AlwaysMigrate = online.AlwaysMigrate
	// KeepEverywhere replicates on first touch and never deletes (baseline).
	KeepEverywhere = online.KeepEverywhere
	// AdaptiveTTL learns per-server revisit-gap distributions online and
	// retains copies for the empirically optimal window (extension; no
	// worst-case guarantee).
	AdaptiveTTL = online.AdaptiveTTL
	// OnlineResult bundles a policy run's schedule and statistics.
	OnlineResult = online.Result
	// CompetitivePoint is one measured policy-vs-optimum ratio.
	CompetitivePoint = online.CompetitivePoint
)

// Serve runs an online policy over a sequence, validates feasibility of the
// produced schedule, and returns it with statistics.
func Serve(p Policy, seq *Sequence, cm CostModel) (*OnlineResult, error) {
	return online.Run(p, seq, cm)
}

// MeasureRatio runs a policy and the off-line optimum on the same instance
// and reports cost, optimum and their ratio. For SpeculativeCaching the
// ratio never exceeds 3 (Theorem 3).
func MeasureRatio(p Policy, seq *Sequence, cm CostModel) (CompetitivePoint, error) {
	return online.CompetitiveRatio(p, seq, cm)
}
