package datacache

import (
	"fmt"

	"datacache/internal/engine"
	"datacache/internal/obs"
)

// DefaultShadowWindow is the rolling cost window (requests) the
// shadow-beats-live comparison uses when neither ShadowWindow nor
// SLOWindow is set.
const DefaultShadowWindow = 64

// DefaultShadowMargin is the fraction by which the best shadow must beat
// the live policy's windowed cost before the shadow_beats_live alert
// rule starts breaching.
const DefaultShadowMargin = 0.25

// ShadowAlertRuleName names the alert rule a shadowed session evaluates
// against the live-over-best-shadow windowed cost ratio.
const ShadowAlertRuleName = "shadow_beats_live"

// PlannerAlertRuleName names the alert rule a hybrid session evaluates
// against its built-in "sc" shadow: it breaches when planning makes the
// live policy pay more than the pure online fallback would have.
const PlannerAlertRuleName = "planner_worse_than_sc"

// ShadowTotals is the accumulator readout of one shadow policy; see
// Session.ShadowTotals.
type ShadowTotals = engine.ShadowTotals

// ShadowStanding is one policy's line in the counterfactual comparison a
// shadowed Session or Pool maintains: what that policy would have paid
// on exactly the live traffic. The live policy appears as a standing
// too (Live true), so a standings slice is a complete leaderboard.
type ShadowStanding struct {
	Policy          string  `json:"policy"`
	Live            bool    `json:"live,omitempty"` // the policy actually serving
	Best            bool    `json:"best,omitempty"` // minimum-cost line
	Cost            float64 `json:"cost"`
	CostOverOptimum float64 `json:"costOverOptimum"`
	WindowedCost    float64 `json:"windowedCost"`
	Hits            int     `json:"hits"`
	Transfers       int     `json:"transfers"`
	Drops           int     `json:"drops"`
	Divergence      int     `json:"divergence"` // requests decided differently from live
	Err             string  `json:"error,omitempty"`
}

// ShadowReport is the full counterfactual readout: every policy's
// standing (live first), the best policy's label, and the
// shadow_beats_live alert when the margin rule is enabled.
type ShadowReport struct {
	Window    int              `json:"window"` // rolling cost window (requests)
	Margin    float64          `json:"margin"` // alert margin (< 0: alert disabled)
	Best      string           `json:"best"`   // label of the minimum-cost policy
	Standings []ShadowStanding `json:"standings"`
	Alert     *Alert           `json:"alert,omitempty"`
}

// shadowRule builds the shadow_beats_live alert rule for a margin: the
// tracked value is the live policy's windowed cost over the best
// shadow's, so it breaches once live costs (1+margin)× the best shadow,
// clears below (1+margin/2)×, and needs three consecutive breaches —
// the same shape as Theorem3Rule.
func shadowRule(margin float64) AlertRule {
	return AlertRule{
		Name:       ShadowAlertRuleName,
		Threshold:  1 + margin,
		Hysteresis: margin / 2,
		For:        3,
	}
}

// plannerRule builds the planner_worse_than_sc alert rule: the tracked
// value is the hybrid live policy's windowed cost over its sc shadow's,
// with the same threshold/hysteresis/streak shape as shadowRule — the
// planner must not merely trail SC within noise, it must clearly lose
// for three consecutive windows before the rule fires.
func plannerRule(margin float64) AlertRule {
	return AlertRule{
		Name:       PlannerAlertRuleName,
		Threshold:  1 + margin,
		Hysteresis: margin / 2,
		For:        3,
	}
}

// initShadows wires the shadow set into a freshly created session; open
// builds the shadow_beats_live tracker.
func (s *Session) initShadows(m int, origin ServerID, opts *SessionOptions) error {
	if len(opts.ShadowPolicies) == 0 {
		return nil
	}
	window := opts.ShadowWindow
	if window <= 0 {
		window = opts.SLOWindow
	}
	if window <= 0 {
		window = DefaultShadowWindow
	}
	// Labels must be unique among shadows; duplicating the live policy's
	// name is allowed — shadowing the live policy itself is the standard
	// self-check that the counterfactual accounting is exact.
	seen := make(map[string]bool, len(opts.ShadowPolicies))
	ds := make([]engine.ShadowDecider, 0, len(opts.ShadowPolicies))
	for _, sp := range opts.ShadowPolicies {
		d, err := sp.decider()
		if err != nil {
			return err
		}
		label := sp.Name()
		if seen[label] {
			return fmt.Errorf("datacache: duplicate shadow policy label %q", label)
		}
		seen[label] = true
		ds = append(ds, engine.ShadowDecider{Name: label, D: d})
	}
	ss, err := engine.NewShadowSet(engine.State{M: m, Origin: origin, Model: s.cm}, window, ds)
	if err != nil {
		return err
	}
	s.shadows = ss
	s.shadowWindow = window
	s.shadowMargin = opts.ShadowMargin
	if s.shadowMargin == 0 {
		s.shadowMargin = DefaultShadowMargin
	}
	return nil
}

// observeShadows feeds one served request to every shadow, returning the
// divergence bitmask, and advances the shadow_beats_live tracker.
func (s *Session) observeShadows(server ServerID, t float64, d *Decision) {
	if s.shadows == nil {
		return
	}
	ed := engine.Decision{Server: server, Time: t, Hit: d.Hit, From: d.From}
	d.ShadowDiverged = s.shadows.Serve(server, t, ed, d.Cost)
	if s.shadowAlert != nil {
		if _, best := s.shadows.BestWindowed(); best > 0 {
			s.shadowAlert.Observe(t, s.shadows.LiveWindowedCost()/best)
		}
	}
	if s.plannerAlert != nil {
		if sc := s.shadows.WindowedCost(s.scShadowIdx); sc > 0 {
			s.plannerAlert.Observe(t, s.shadows.LiveWindowedCost()/sc)
		}
	}
}

// ShadowNames returns the shadow policy labels in evaluation order (bit
// i of Decision.ShadowDiverged corresponds to ShadowNames()[i]), or nil
// when the session runs no shadows. The slice is shared; treat it as
// read-only.
func (s *Session) ShadowNames() []string {
	if s.shadows == nil {
		return nil
	}
	return s.shadows.Names()
}

// ShadowCostLive returns shadow i's running cost, priced exactly as Cost
// prices the live policy: in O(M), and bit for bit the live cost when the
// shadow runs the live policy's own decider.
func (s *Session) ShadowCostLive(i int) float64 { return s.shadows.Cost(i) }

// ShadowTotals returns shadow i's accumulator readout, its cost as
// ShadowCostLive reports it — what Pool eviction folds into its retained
// accounting.
func (s *Session) ShadowTotals(i int) ShadowTotals { return s.shadows.Totals(i) }

// ShadowWindowedCosts reports the rolling windowed cost of the live
// policy and each shadow (indexed like ShadowNames); nil without
// shadows.
func (s *Session) ShadowWindowedCosts() (live float64, shadows []float64) {
	if s.shadows == nil {
		return 0, nil
	}
	out := make([]float64, s.shadows.Len())
	for i := range out {
		out[i] = s.shadows.WindowedCost(i)
	}
	return s.shadows.LiveWindowedCost(), out
}

// ShadowAlert returns the shadow_beats_live rule's standing, or false
// when the session runs no shadows or the margin rule is disabled.
func (s *Session) ShadowAlert() (Alert, bool) {
	if s.shadowAlert == nil {
		return Alert{}, false
	}
	return s.shadowAlert.Alert(), true
}

// SetShadowTransitionHook installs h (nil detaches) to observe
// shadow_beats_live state changes synchronously from Serve, mirroring
// SLO.SetTransitionHook. It is a no-op without the shadow alert.
func (s *Session) SetShadowTransitionHook(h obs.TransitionHook) {
	if s.shadowAlert != nil {
		s.shadowAlert.SetTransitionHook(h)
	}
}

// PlannerAlert returns the planner_worse_than_sc rule's standing, or
// false when the live policy is not hybrid or the margin rule is
// disabled.
func (s *Session) PlannerAlert() (Alert, bool) {
	if s.plannerAlert == nil {
		return Alert{}, false
	}
	return s.plannerAlert.Alert(), true
}

// SetPlannerTransitionHook installs h (nil detaches) to observe
// planner_worse_than_sc state changes synchronously from Serve,
// mirroring SetShadowTransitionHook. It is a no-op without the planner
// alert.
func (s *Session) SetPlannerTransitionHook(h obs.TransitionHook) {
	if s.plannerAlert != nil {
		s.plannerAlert.SetTransitionHook(h)
	}
}

// Alerts merges the SLO rules' standings with the shadow_beats_live and
// planner_worse_than_sc standings, in that order. Nil when the session
// tracks none.
func (s *Session) Alerts() []Alert {
	var out []Alert
	if s.slo != nil {
		out = s.slo.Alerts()
	}
	if a, ok := s.ShadowAlert(); ok {
		out = append(out, a)
	}
	if a, ok := s.PlannerAlert(); ok {
		out = append(out, a)
	}
	return out
}

// ShadowReport builds the full counterfactual readout, or nil when the
// session runs no shadows. Every cost is priced as Cost prices the live
// policy, so a shadow running the live policy's own decider reports the
// live cost bit for bit.
func (s *Session) ShadowReport() *ShadowReport {
	if s.shadows == nil {
		return nil
	}
	opt := s.OptimalCost()
	rep := &ShadowReport{
		Window:    s.shadowWindow,
		Margin:    s.shadowMargin,
		Standings: make([]ShadowStanding, 0, s.shadows.Len()+1),
	}
	rep.Standings = append(rep.Standings, ShadowStanding{
		Policy:          s.policy,
		Live:            true,
		Cost:            s.Cost(),
		CostOverOptimum: ratioOf(s.Cost(), opt),
		WindowedCost:    s.shadows.LiveWindowedCost(),
		Hits:            s.Hits(),
		Transfers:       s.Transfers(),
		Drops:           s.stream.Drops(),
	})
	for i := 0; i < s.shadows.Len(); i++ {
		st := ShadowStanding{
			Policy:          s.shadows.Names()[i],
			Cost:            s.shadows.Cost(i),
			CostOverOptimum: ratioOf(s.shadows.Cost(i), opt),
			WindowedCost:    s.shadows.WindowedCost(i),
			Hits:            s.shadows.Hits(i),
			Transfers:       s.shadows.Transfers(i),
			Drops:           s.shadows.Drops(i),
			Divergence:      s.shadows.Divergence(i),
		}
		if err := s.shadows.Err(i); err != nil {
			st.Err = err.Error()
		}
		rep.Standings = append(rep.Standings, st)
	}
	best := 0
	for i := 1; i < len(rep.Standings); i++ {
		if rep.Standings[i].Err == "" && rep.Standings[i].Cost < rep.Standings[best].Cost {
			best = i
		}
	}
	rep.Standings[best].Best = true
	rep.Best = rep.Standings[best].Policy
	if a, ok := s.ShadowAlert(); ok {
		rep.Alert = &a
	}
	return rep
}

// Shadows returns the counterfactual standings — the live policy first,
// then every shadow in option order, with Best marking the minimum-cost
// line — or nil when the session runs no shadows.
func (s *Session) Shadows() []ShadowStanding {
	rep := s.ShadowReport()
	if rep == nil {
		return nil
	}
	return rep.Standings
}
