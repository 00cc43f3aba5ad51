// Package planner closes the paper's online/offline loop inside the live
// server: a rolling-horizon hybrid decider feeds the order-k Markov
// trajectory predictor into the offline dynamic program (FastDP) over
// the predicted next-K requests, executes the DP's holding plan while the
// predictions keep coming true, and falls back to the online Speculative
// Caching rules the moment they stop.
//
// The construction wraps engine.SC rather than re-implementing it: the
// plan is expressed purely through SC's per-server retention-window hook
// (WindowOf), so every engine invariant — last-copy protection, grouped
// expiry, serve-from-freshest — keeps holding no matter how wrong the
// plan is. When the prediction-confidence gate is closed the hook returns
// exactly the default SC window, which makes the decider's action stream
// bit-for-bit identical to plain SC; with the gate open, a mispredicted
// request clears the plan before it is served, so the request that breaks
// the prediction is itself handled by pure SC rules. Bad plans therefore
// cost at most the bounded extra holding the cleared plan already armed,
// and the 3-competitive online guarantee degrades gracefully instead of
// breaking (see DESIGN.md §13 for the argument).
package planner

import (
	"fmt"
	"math"

	"datacache/internal/engine"
	"datacache/internal/model"
	"datacache/internal/offline"
	"datacache/internal/trajectory"
)

// Defaults for the zero-valued Hybrid. Horizon and order follow the
// paper's E8 setup (short lookahead, low-order Markov); the confidence
// gate opens only after MinHistory observed predictions hit at a
// MinConfidence rate over the rolling ConfWindow.
const (
	DefaultHorizon       = 8
	DefaultOrder         = 2
	DefaultMinHistory    = 16
	DefaultMinConfidence = 0.8
	DefaultConfWindow    = 64

	// epsWindow is the near-zero retention the plan assigns to servers the
	// DP holds no copy on: the copy drops at the next timer drain instead
	// of idling a full speculative window.
	epsWindow = 1e-12
)

// Hybrid is the prediction-fed rolling-horizon decider. The zero value
// (with defaults applied at Init) predicts with an order-2 Markov model
// and plans 8 requests ahead. It implements engine.Decider and is driven
// exactly like SC — by engine.Stream, the simulator, or a shadow set.
type Hybrid struct {
	// Horizon is the planning depth K: how many predicted future requests
	// the offline DP optimizes over (default DefaultHorizon).
	Horizon int
	// Order is the Markov predictor's context length k (default
	// DefaultOrder).
	Order int
	// Window overrides the SC fallback window Δt = λ/μ, exactly like
	// engine.SC.Window.
	Window float64
	// EpochTransfers enables the wrapped SC's epoch restarts (0 disables).
	EpochTransfers int
	// MinHistory is how many prediction outcomes must be observed before
	// the confidence gate may open (default DefaultMinHistory).
	MinHistory int
	// MinConfidence is the rolling prediction accuracy required to plan
	// (default DefaultMinConfidence). A value above 1 can never be met and
	// disables planning outright — the decider is then SC bit-for-bit.
	MinConfidence float64
	// ConfWindow is the rolling accuracy window in requests (default
	// DefaultConfWindow).
	ConfWindow int

	// OnReset, when set, observes the wrapped SC's epoch restarts.
	OnReset func(t float64, keep model.ServerID)
	// OnMispredict, when set, observes every planned prediction that came
	// false: the request at t arrived at actual, not at predicted. The
	// plan is already cleared when the hook runs.
	OnMispredict func(t float64, predicted, actual model.ServerID)

	st engine.State
	sc *engine.SC

	pred    *trajectory.Predictor
	recent  []model.ServerID // last Order visits, predictor context
	scratch []model.ServerID // iterated-prediction context buffer
	planSeq model.Sequence   // predicted requests of the current replan

	defaultWindow float64
	now           float64 // current event time, read by windowOf
	lastT         float64
	gapEWMA       float64
	nSeen         int

	// Prediction-outcome tracking: trackNext is the predicted next server
	// (0 before any prediction); outcomes is a rolling ring of hit/miss.
	trackNext model.ServerID
	outcomes  []bool
	outPos    int
	outN      int
	outHits   int

	// The active plan: per-server hold-until instants extracted from the
	// DP schedule over the predicted horizon. NaN marks servers the plan
	// holds no copy on.
	planActive  bool
	keepUntil   []float64
	planDepth   int
	plans       int
	predHits    int
	mispredicts int
}

// Stats is a point-in-time planner readout.
type Stats struct {
	Horizon int `json:"horizon"`
	Order   int `json:"order"`
	// Plans counts rolling-horizon plans built; PlanDepth is the depth of
	// the most recent one (0 when no plan is active).
	Plans     int `json:"plans"`
	PlanDepth int `json:"planDepth"`
	// PredHits and Mispredicts count planned predictions that came true
	// and false; PredictedHitRatio is their ratio (1 before any planned
	// prediction resolved).
	PredHits          int     `json:"predHits"`
	Mispredicts       int     `json:"mispredicts"`
	PredictedHitRatio float64 `json:"predictedHitRatio"`
	// Confidence is the rolling prediction accuracy over the last
	// ConfWindow requests (planned or not); GateOpen reports whether the
	// planner is currently allowed to plan.
	Confidence float64 `json:"confidence"`
	GateOpen   bool    `json:"gateOpen"`
}

func (h *Hybrid) horizon() int {
	if h.Horizon > 0 {
		return h.Horizon
	}
	return DefaultHorizon
}

func (h *Hybrid) order() int {
	if h.Order > 0 {
		return h.Order
	}
	return DefaultOrder
}

func (h *Hybrid) minHistory() int {
	if h.MinHistory > 0 {
		return h.MinHistory
	}
	return DefaultMinHistory
}

func (h *Hybrid) minConfidence() float64 {
	if h.MinConfidence != 0 {
		return h.MinConfidence
	}
	return DefaultMinConfidence
}

func (h *Hybrid) confWindow() int {
	if h.ConfWindow > 0 {
		return h.ConfWindow
	}
	return DefaultConfWindow
}

// Name implements engine.Decider.
func (h *Hybrid) Name() string {
	return fmt.Sprintf("Hybrid(horizon=%d,order=%d)", h.horizon(), h.order())
}

// Init implements engine.Decider: it resets the predictor, the outcome
// ring and the plan, then initializes the wrapped SC with the plan-driven
// window hook installed.
func (h *Hybrid) Init(st engine.State) []engine.Action {
	h.st = st
	h.defaultWindow = h.Window
	if h.defaultWindow <= 0 {
		h.defaultWindow = st.Model.Delta()
	}
	h.pred = trajectory.NewPredictor(h.order())
	h.recent = h.recent[:0]
	h.scratch = h.scratch[:0]
	h.now = 0
	h.lastT = 0
	h.gapEWMA = 0
	h.nSeen = 0
	h.trackNext = 0
	h.outcomes = make([]bool, h.confWindow())
	h.outPos, h.outN, h.outHits = 0, 0, 0
	h.planActive = false
	h.keepUntil = make([]float64, st.M+1)
	h.planDepth = 0
	h.plans, h.predHits, h.mispredicts = 0, 0, 0
	h.sc = &engine.SC{
		Window:         h.Window,
		EpochTransfers: h.EpochTransfers,
		WindowOf:       h.windowOf,
		OnReset:        h.OnReset,
	}
	return h.sc.Init(st)
}

// OnRequest implements engine.Decider. The order matters: first the
// previous prediction is scored (a planned mispredict clears the plan, so
// this request is served under pure SC windows), then the predictor
// learns the arrival, then a fresh plan is built from the post-request
// state — so the windows SC applies while serving already reflect it.
func (h *Hybrid) OnRequest(server model.ServerID, t float64) ([]engine.Action, error) {
	h.now = t
	if h.trackNext != 0 {
		hit := h.trackNext == server
		h.pushOutcome(hit)
		if h.planActive {
			if hit {
				h.predHits++
			} else {
				h.mispredicts++
				predicted := h.trackNext
				h.clearPlan()
				if h.OnMispredict != nil {
					h.OnMispredict(t, predicted, server)
				}
			}
		}
	}
	if h.nSeen > 0 {
		gap := t - h.lastT
		if h.gapEWMA == 0 {
			h.gapEWMA = gap
		} else {
			h.gapEWMA = 0.8*h.gapEWMA + 0.2*gap
		}
	}
	h.lastT = t
	h.nSeen++
	h.pred.Observe(h.recent, server)
	h.recent = appendContext(h.recent, server, h.order())
	h.trackNext = h.pred.Predict(h.recent)
	h.replan(server, t)
	return h.sc.OnRequest(server, t)
}

// OnTimer implements engine.Decider by delegating to the wrapped SC,
// keeping the window hook's clock current (a group survivor is refreshed
// at its expiry instant).
func (h *Hybrid) OnTimer(t float64) []engine.Action {
	h.now = t
	return h.sc.OnTimer(t)
}

// windowOf is the WindowOf hook the wrapped SC consults at every refresh.
// Gate closed: exactly the default SC window, making the action stream
// identical to plain SC. Gate open: the DP plan's hold-until instant for
// the server, or a near-zero window when the plan holds no copy there.
func (h *Hybrid) windowOf(server model.ServerID) float64 {
	if !h.planActive {
		return h.defaultWindow
	}
	ku := h.keepUntil[server]
	if math.IsNaN(ku) || ku <= h.now {
		return epsWindow
	}
	return ku - h.now
}

// replan rebuilds the rolling-horizon plan after a request at (server, t):
// iterate the Markov predictor Horizon steps ahead (feeding predictions
// back as context), space the predicted requests by the EWMA arrival gap,
// run FastDP over that sequence from a copy at the just-served server,
// and read each server's hold-until instant off the optimal schedule's
// caching intervals.
func (h *Hybrid) replan(server model.ServerID, t float64) {
	h.clearPlan()
	if !h.gateOpen() || h.gapEWMA <= 0 {
		return
	}
	h.scratch = append(h.scratch[:0], h.recent...)
	seq := &h.planSeq
	seq.M, seq.Origin, seq.Requests = h.st.M, server, seq.Requests[:0]
	rel := 0.0
	for i := 0; i < h.horizon(); i++ {
		next := h.pred.Predict(h.scratch)
		if next < 1 || int(next) > h.st.M {
			break
		}
		// FastDP rejects the whole sequence on one invalid request, so the
		// prediction stops at the first time that does not increase.
		at := rel + h.gapEWMA
		if at <= rel || math.IsInf(at, 0) {
			break
		}
		rel = at
		seq.Requests = append(seq.Requests, model.Request{Server: next, Time: rel})
		h.scratch = appendContext(h.scratch, next, h.order())
	}
	if seq.N() == 0 {
		return
	}
	res, err := offline.FastDP(seq, h.st.Model)
	if err != nil {
		return
	}
	sched, err := res.Schedule()
	if err != nil {
		return
	}
	for j := range h.keepUntil {
		h.keepUntil[j] = math.NaN()
	}
	// An interval starting at relative time f is worth covering with a
	// copy already on the server only when idling until it costs no more
	// than the transfer the plan budgeted to create it: μ·f ≤ λ, i.e.
	// f ≤ Δ. The origin's own interval (f = 0) always qualifies; a far
	// revisit is cheaper to serve by the planned transfer, so the copy
	// should drop rather than idle.
	delta := h.st.Model.Delta()
	for _, ci := range sched.Caches {
		if ci.From > delta*(1+1e-9) {
			continue
		}
		ku := t + ci.To // schedule times are relative to the plan instant
		if math.IsNaN(h.keepUntil[ci.Server]) || ku > h.keepUntil[ci.Server] {
			h.keepUntil[ci.Server] = ku
		}
	}
	h.planDepth = seq.N()
	h.plans++
	h.planActive = true
}

// gateOpen reports whether the confidence gate allows planning: enough
// observed prediction outcomes, at a high enough rolling accuracy.
func (h *Hybrid) gateOpen() bool {
	if h.outN < h.minHistory() {
		return false
	}
	return h.confidence() >= h.minConfidence()
}

// confidence is the rolling prediction accuracy (planned or not) over the
// last ConfWindow scored predictions; 0 before any.
func (h *Hybrid) confidence() float64 {
	if h.outN == 0 {
		return 0
	}
	return float64(h.outHits) / float64(h.outN)
}

// pushOutcome records one prediction outcome in the rolling ring.
func (h *Hybrid) pushOutcome(hit bool) {
	if h.outN == len(h.outcomes) {
		if h.outcomes[h.outPos] {
			h.outHits--
		}
	} else {
		h.outN++
	}
	h.outcomes[h.outPos] = hit
	if hit {
		h.outHits++
	}
	h.outPos++
	if h.outPos == len(h.outcomes) {
		h.outPos = 0
	}
}

func (h *Hybrid) clearPlan() {
	h.planActive = false
	h.planDepth = 0
}

// Stats returns the planner readout; safe whenever no Serve is in flight.
func (h *Hybrid) Stats() Stats {
	st := Stats{
		Horizon:           h.horizon(),
		Order:             h.order(),
		Plans:             h.plans,
		PlanDepth:         h.planDepth,
		PredHits:          h.predHits,
		Mispredicts:       h.mispredicts,
		PredictedHitRatio: 1,
		Confidence:        h.confidence(),
		GateOpen:          h.planActive || (h.pred != nil && h.gateOpen()),
	}
	if n := h.predHits + h.mispredicts; n > 0 {
		st.PredictedHitRatio = float64(h.predHits) / float64(n)
	}
	return st
}

// appendContext appends v keeping at most k trailing entries, compacting
// in place so the context buffer never grows past k.
func appendContext(ctx []model.ServerID, v model.ServerID, k int) []model.ServerID {
	ctx = append(ctx, v)
	if len(ctx) > k {
		copy(ctx, ctx[len(ctx)-k:])
		ctx = ctx[:k]
	}
	return ctx
}
