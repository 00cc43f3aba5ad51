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
	Best            bool    `json:"best,omitempty"` // the line the Best rule picks
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
// standing (a Session's or Pool's live line first), the best line's
// label, and the shadow_beats_live alert when the margin rule is
// enabled. The cheapest line is best; the live line wins a tie, and a
// shadow that has errored is never best.
type ShadowReport struct {
	Window    int              `json:"window"` // rolling cost window (requests)
	Margin    float64          `json:"margin"` // alert margin (< 0: alert disabled)
	Best      string           `json:"best"`   // label of the best line
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

// ShadowTotals returns shadow i's accumulator readout, its cost priced
// exactly as Cost prices the live policy: in O(M), and bit for bit the
// live cost when the shadow runs the live policy's own decider.
func (s *Session) ShadowTotals(i int) ShadowTotals { return s.shadows.Totals(i) }

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
	lg := make(shadowLedger, 0, s.shadows.Len()+1)
	lg = append(lg, ShadowStanding{
		Policy:       s.policy,
		Live:         true,
		Cost:         s.Cost(),
		WindowedCost: s.shadows.LiveWindowedCost(),
		Hits:         s.Hits(),
		Transfers:    s.Transfers(),
		Drops:        s.stream.Drops(),
	})
	for i, name := range s.shadows.Names() {
		tot := s.shadows.Totals(i)
		st := ShadowStanding{
			Policy:       name,
			Cost:         tot.Cost,
			WindowedCost: s.shadows.WindowedCost(i),
			Hits:         tot.Hits,
			Transfers:    tot.Transfers,
			Drops:        tot.Drops,
			Divergence:   tot.Divergence,
		}
		if err := s.shadows.Err(i); err != nil {
			st.Err = err.Error()
		}
		lg = append(lg, st)
	}
	rep := lg.report(s.shadowWindow, s.shadowMargin, s.OptimalCost())
	if a, ok := s.ShadowAlert(); ok {
		rep.Alert = &a
	}
	return rep
}

// shadowLedger is the counterfactual leaderboard behind every shadow
// readout: Session and Pool reports, Replay's panel, the dc_shadow_* and
// dc_pool_shadow_* gauges and dcload's table. Its lines are additive
// (cost, windowed cost, hits, transfers, drops, divergence; the first
// error sticks), and a line is identified by its (label, live) pair, so
// a self-check shadow that shares the live policy's label keeps a line
// of its own.
type shadowLedger []ShadowStanding

// add folds line into the ledger's line with the same (label, live)
// pair, or appends it as a new line.
func (lg *shadowLedger) add(line ShadowStanding) {
	for i := range *lg {
		if l := &(*lg)[i]; l.Policy == line.Policy && l.Live == line.Live {
			l.accumulate(line)
			return
		}
	}
	*lg = append(*lg, line)
}

// accumulate adds o's additive fields into s; s keeps its own error
// when it has one.
func (s *ShadowStanding) accumulate(o ShadowStanding) {
	s.Cost += o.Cost
	s.WindowedCost += o.WindowedCost
	s.Hits += o.Hits
	s.Transfers += o.Transfers
	s.Drops += o.Drops
	s.Divergence += o.Divergence
	if s.Err == "" {
		s.Err = o.Err
	}
}

// report ranks the ledger into a report that takes over its lines. Each
// line's CostOverOptimum becomes its cost over optimum, and the one Best
// rule marks the winner: the cheapest line wins, the live line wins a
// tie, and a shadow that has errored never wins.
func (lg shadowLedger) report(window int, margin, optimum float64) *ShadowReport {
	best := -1
	for i := range lg {
		l := &lg[i]
		l.CostOverOptimum = ratioOf(l.Cost, optimum)
		l.Best = false
		if l.Err != "" {
			continue
		}
		if best < 0 || l.Cost < lg[best].Cost || l.Cost == lg[best].Cost && l.Live && !lg[best].Live {
			best = i
		}
	}
	rep := &ShadowReport{Window: window, Margin: margin, Standings: lg}
	if best >= 0 {
		lg[best].Best = true
		rep.Best = lg[best].Policy
	}
	return rep
}

// MergeShadowReports folds the shadow reports of several sessions or
// streams into one leaderboard. Lines with the same (policy, live) pair
// add up, so a self-check shadow stays apart from the live line it
// shadows, and lines keep the order they first appear in. Each merged
// line's CostOverOptimum is recomputed as its merged cost over optimum,
// the optimum of the merged traffic, and the Best rule is applied anew.
// Window and Margin are the first report's; the merge carries no alert.
// Nil reports are skipped; with none left the result is nil.
func MergeShadowReports(optimum float64, reports ...*ShadowReport) *ShadowReport {
	var lg shadowLedger
	var first *ShadowReport
	for _, r := range reports {
		if r == nil {
			continue
		}
		if first == nil {
			first = r
		}
		for _, line := range r.Standings {
			lg.add(line)
		}
	}
	if first == nil {
		return nil
	}
	return lg.report(first.Window, first.Margin, optimum)
}
