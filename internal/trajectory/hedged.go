package trajectory

import (
	"math"

	"datacache/internal/model"
	"datacache/internal/offline"
)

// hedgeEps is the jitter separating a hedge request from its primary:
// request times must be strictly increasing, so the hedge is provisioned an
// instant before the primary; execution counts a delivery within 2·hedgeEps
// of the true instant as covering it.
const hedgeEps = 1e-6

// PredictTop2 returns the two most likely next stations after the recent
// history, with the top candidate's empirical confidence (its share of the
// matched context's observations). The second result is 0 when the context
// has a single outcome.
func (p *Predictor) PredictTop2(recent []model.ServerID) (first, second model.ServerID, confidence float64) {
	if m := p.match(recent); len(m) > 0 {
		return top2(m)
	}
	return 1, 0, 0
}

func top2(m map[model.ServerID]int) (first, second model.ServerID, confidence float64) {
	bestN, secondN, total := -1, -1, 0
	for s, n := range m {
		total += n
		switch {
		case n > bestN || (n == bestN && s < first):
			second, secondN = first, bestN
			first, bestN = s, n
		case n > secondN || (n == secondN && s < second):
			second, secondN = s, n
		}
	}
	if total > 0 {
		confidence = float64(bestN) / float64(total)
	}
	return first, second, confidence
}

// HedgedReport extends ExecutionReport with hedging bookkeeping.
type HedgedReport struct {
	ExecutionReport
	Hedges int // hedge requests added to the planned sequence
}

// HedgedPlanAndExecute plans for the top-2 predicted locations whenever the
// predictor's confidence falls below minConfidence: the runner-up location
// is inserted as an extra planned request an instant before the primary, so
// the off-line optimizer provisions a copy (or delivery) for both
// candidates. Replaying against the truth, a request is covered when the
// plan holds a copy at its server, delivers one within the hedge jitter, or
// predicted it outright; everything else pays the fallback transfer.
//
// Hedging trades provisioning cost for fallback cost, so it wins exactly
// when λ is large relative to the caching spend of the extra provision —
// the regime TestHedgedPlanningReducesFallbackBill pins down.
func HedgedPlanAndExecute(p *Predictor, actual *model.Sequence, cm model.CostModel, minConfidence float64) (*HedgedReport, error) {
	if err := actual.Validate(); err != nil {
		return nil, err
	}
	visits := Servers(actual)
	planned := &model.Sequence{M: actual.M, Origin: actual.Origin}
	hedges := 0
	lastT := 0.0
	for i, r := range actual.Requests {
		lo := max(0, i-p.K)
		first, second, conf := p.PredictTop2(visits[lo:i])
		if conf < minConfidence && second != 0 && second != first {
			ht := r.Time - hedgeEps
			if ht > lastT && second >= 1 && int(second) <= actual.M {
				planned.Requests = append(planned.Requests, model.Request{Server: second, Time: ht})
				hedges++
			}
		}
		planned.Requests = append(planned.Requests, model.Request{Server: first, Time: r.Time})
		lastT = r.Time
	}
	if err := planned.Validate(); err != nil {
		return nil, err
	}
	res, err := offline.FastDP(planned, cm)
	if err != nil {
		return nil, err
	}
	sched, err := res.Schedule()
	if err != nil {
		return nil, err
	}
	rep := &HedgedReport{Hedges: hedges}
	rep.PlanCost = res.Cost()
	rep.Accuracy = p.Accuracy(visits)
	primaryAt := func(i int) model.ServerID {
		lo := max(0, i-p.K)
		return p.Predict(visits[lo:i])
	}
	for i, r := range actual.Requests {
		if sched.HeldAt(r.Server, r.Time) ||
			deliveredNear(sched, r, 2*hedgeEps) ||
			primaryAt(i) == r.Server {
			continue
		}
		rep.Fallbacks++
	}
	rep.FallbackCost = float64(rep.Fallbacks) * cm.Lambda
	rep.TotalCost = rep.PlanCost + rep.FallbackCost
	return rep, nil
}

// deliveredNear reports whether the schedule delivers a copy to the
// request's server within tol of its instant.
func deliveredNear(s *model.Schedule, r model.Request, tol float64) bool {
	for _, tr := range s.Transfers {
		if tr.To == r.Server && math.Abs(tr.Time-r.Time) <= tol {
			return true
		}
	}
	return false
}
