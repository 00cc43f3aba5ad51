package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/obs"
	"datacache/internal/obs/tsdb"
)

// The /v1/session routes expose datacache.Session over HTTP: create a
// session, POST live requests one at a time (each reply carries the
// engine's decision plus the exact prefix optimum and running competitive
// ratio), GET {id}/trace for the bounded decision-event ring, and DELETE
// to close it and collect the final schedule. A session serves the
// traffic with an online policy, and its streaming DP is the service's
// one live readout of the prefix optimum. Every decision feeds the engine event
// counters and the decision-latency histogram; the per-session
// cost / optimum / cost_over_optimum / live_copies gauges and the rest
// of a session's /metrics series are read from the session when a
// scrape or a history sample asks (collectEntries).

// sessionEntry wraps a Session with its own context-aware lock so
// concurrent operations on different sessions never serialize anywhere:
// the registry shard lock is held only for the lookup, and the entry lock
// (an entryLock semaphore) is abandoned when the waiting client
// disconnects.
//
// inflight counts the serve operations (single requests and batches)
// currently queued against the entry; the handler sheds work beyond the
// server's inflight budget with 429 before ever touching the lock.
type sessionEntry struct {
	lk       entryLock
	inflight atomic.Int64
	sess     *datacache.Session
	// evs buffers the engine events of the serve operation currently
	// running under the entry lock; the handlers reset it before Serve and
	// read it after, to annotate the request's trace span with what the
	// decision actually did (hit/transfer/drop/timer/epoch-reset).
	evs []obs.Event
}

// SessionCreateRequest is the /v1/session body.
type SessionCreateRequest struct {
	M      int            `json:"m"`
	Origin model.ServerID `json:"origin"`
	Model  CostModelDTO   `json:"model"`
	// Policy is a PolicySpec string, parameters included: "sc" (the
	// default when empty), "ttl:window=0.5", "sc:epoch=16", "adaptive",
	// "migrate", "replicate" or "hybrid:horizon=8,order=2".
	Policy string `json:"policy,omitempty"`
	// Shadows lists counterfactual policies to evaluate in lockstep with
	// live serving ("sc:window=1.5", "ttl:window=0.5", "sc:epoch=16",
	// "migrate", "replicate"); standings at GET {id}/shadow.
	Shadows []string `json:"shadows,omitempty"`
}

// SessionState reports a session's standing. Planner is present only on
// hybrid sessions.
type SessionState struct {
	ID         string                  `json:"id"`
	Policy     string                  `json:"policy"`
	N          int                     `json:"n"`
	Hits       int                     `json:"hits"`
	Transfers  int                     `json:"transfers"`
	LiveCopies int                     `json:"liveCopies"`
	Cost       float64                 `json:"cost"`
	Optimal    float64                 `json:"optimal"`
	Ratio      float64                 `json:"ratio"`
	Planner    *datacache.PlannerStats `json:"planner,omitempty"`
}

// SessionTraceResponse is the GET {id}/trace reply: the bounded ring of
// the session's most recent decision events, oldest first.
type SessionTraceResponse struct {
	ID      string                 `json:"id"`
	Cap     int                    `json:"cap"`
	Dropped int                    `json:"dropped"` // events evicted by the ring bound
	Events  []datacache.TraceEvent `json:"events"`
}

// SessionDecision is the reply to one served request.
type SessionDecision struct {
	ID      string         `json:"id"`
	N       int            `json:"n"`
	Server  model.ServerID `json:"server"`
	Time    float64        `json:"time"`
	Hit     bool           `json:"hit"`
	From    model.ServerID `json:"from,omitempty"` // transfer source on a miss
	Cost    float64        `json:"cost"`
	Optimal float64        `json:"optimal"`
	Ratio   float64        `json:"ratio"`
	Regret  float64        `json:"regret"` // online cost delta − optimum delta
}

// SessionCloseResponse is the DELETE reply: final state plus the realized
// schedule.
type SessionCloseResponse struct {
	State    SessionState    `json:"state"`
	Schedule *model.Schedule `json:"schedule"`
}

// SessionSLOResponse is the GET {id}/slo reply: the rolling-window SLO
// reading plus the per-server cost attribution, alongside the cumulative
// numbers for comparison.
type SessionSLOResponse struct {
	ID        string                 `json:"id"`
	Policy    string                 `json:"policy"`
	Cost      float64                `json:"cost"`
	Optimal   float64                `json:"optimal"`
	Ratio     float64                `json:"ratio"`
	SLO       datacache.SLOSnapshot  `json:"slo"`
	Breakdown []datacache.ServerCost `json:"breakdown"`
}

// SessionShadowResponse is the GET {id}/shadow reply: the session's
// cumulative readout plus the full counterfactual standings (live policy
// first, Best marking the minimum-cost line).
type SessionShadowResponse struct {
	ID      string  `json:"id"`
	Policy  string  `json:"policy"`
	N       int     `json:"n"`
	Cost    float64 `json:"cost"`
	Optimal float64 `json:"optimal"`
	Ratio   float64 `json:"ratio"`
	datacache.ShadowReport
}

// SessionAlert is one session's standing on one alert rule, as listed by
// GET /v1/alerts.
type SessionAlert struct {
	Session string          `json:"session"`
	Alert   datacache.Alert `json:"alert"`
}

// AlertsResponse is the GET /v1/alerts reply. Alerts lists every
// non-inactive rule across live sessions, firing first, then pending,
// then resolved, ties broken by session id.
type AlertsResponse struct {
	Firing int            `json:"firing"`
	Alerts []SessionAlert `json:"alerts"`
}

// ReadyResponse is the GET /readyz reply: "ready" normally, "degraded"
// while any session's SLO alert is firing. The status code stays 200
// either way — a degraded SLO means the policy is pricing badly, not
// that the process should be restarted.
type ReadyResponse struct {
	Status       string `json:"status"`
	Version      string `json:"version"`
	SessionsOpen int    `json:"sessionsOpen"`
	FiringAlerts int    `json:"firingAlerts"`
}

func sessionState(id string, sess *datacache.Session) SessionState {
	st := SessionState{
		ID:         id,
		Policy:     sess.Policy(),
		N:          sess.N(),
		Hits:       sess.Hits(),
		Transfers:  sess.Transfers(),
		LiveCopies: sess.LiveCopies(),
		Cost:       sess.Cost(),
		Optimal:    sess.OptimalCost(),
		Ratio:      sess.Ratio(),
	}
	if ps, ok := sess.PlannerStats(); ok {
		st.Planner = &ps
	}
	return st
}

// engineObserver feeds every decision event of one session into the
// kind-labeled engine counters and the entry's per-serve event buffer.
// The counters are pre-resolved atomics, and the buffer append happens
// under the entry lock every Serve already holds, so observation adds no
// locks to the serving path.
func (s *Server) engineObserver(entry *sessionEntry) datacache.Observer {
	return obs.ObserverFunc(func(ev obs.Event) {
		if k := int(ev.Kind); k >= 0 && k < len(s.engineEventK) {
			s.engineEventK[k].Inc()
		}
		entry.evs = append(entry.evs, ev)
	})
}

// eventsLabel joins decision-event kinds into the span annotation, e.g.
// "request,transfer" or "drop,drop,request,hit".
func eventsLabel(evs []obs.Event) string {
	var b strings.Builder
	for i, ev := range evs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(ev.Kind.String())
	}
	return b.String()
}

// decisionLabel names the serve outcome for span search.
func decisionLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "transfer"
}

// shadowDivergenceLabel joins the labels of the shadow policies whose
// decision diverged from the live one (bit i of mask ↔ names[i]), e.g.
// "migrate,ttl:window=0.5". Empty when every shadow agreed.
func shadowDivergenceLabel(names []string, mask uint64) string {
	if mask == 0 {
		return ""
	}
	var b strings.Builder
	for i, name := range names {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
	}
	return b.String()
}

// annotateServeSpan fills one serve child span from a decision and ends
// it. shadows names the shadow policies that decided this request
// differently (empty when unshadowed or unanimous). Nil-span safe, so
// untraced paths pay only the calls.
func annotateServeSpan(sp *obs.Span, id string, d datacache.Decision, events, shadows string) {
	if sp == nil {
		return
	}
	sp.Session = id
	sp.Server = int(d.Server)
	sp.Decision = decisionLabel(d.Hit)
	sp.Events = events
	sp.Drops = d.Drops
	sp.Shadows = shadows
	sp.Regret = d.Regret
	sp.End()
}

// collectEntries writes every open session's and pool's metric series.
// The registry runs it before each /metrics render and each history
// sample, so the serve path writes no gauges. Each entry is read under
// its lock, and a closed one is skipped: DELETE closes under the same
// lock before it retires the entry's series, so a read that precedes
// the close has its writes retired, and one that follows writes nothing.
func (s *Server) collectEntries() {
	s.sessions.forEach(func(id string, e *sessionEntry) {
		_ = e.lk.lock(context.Background()) // never fails: the context cannot be canceled
		if !e.sess.Closed() {
			s.publishSessionGauges(id, e.sess)
		}
		e.lk.unlock()
	})
	s.pools.forEach(func(id string, e *poolEntry) {
		_ = e.lk.lock(context.Background())
		if !e.pool.Closed() {
			s.publishPoolGauges(id, e)
		}
		e.lk.unlock()
	})
}

// publishSessionGauges writes one session's metric series. Every cost
// it reads — live, per server and per shadow — is an O(M) ledger read.
// Callers hold the session entry lock.
func (s *Server) publishSessionGauges(id string, sess *datacache.Session) {
	cost, opt := sess.Cost(), sess.OptimalCost()
	s.sessionCost.With(id).Set(cost)
	s.sessionOpt.With(id).Set(opt)
	s.sessionRatio.With(id).Set(costOverOpt(cost, opt))
	s.sessionLive.With(id).Set(float64(sess.LiveCopies()))

	// Per-server attribution: only servers that have accrued cost or hold
	// a copy get a series, so an m=100 session with three active servers
	// exports six cost series, not two hundred.
	for _, sc := range sess.CostBreakdown() {
		if !sc.Live && sc.Caching == 0 && sc.Transfers == 0 {
			continue
		}
		srv := strconv.Itoa(int(sc.Server))
		s.serverCost.With(id, srv, "caching").Set(sc.Caching)
		s.serverCost.With(id, srv, "transfer").Set(sc.Transfer)
	}

	if slo := sess.SLO(); slo != nil {
		s.sessionWRat.With(id).Set(slo.WindowedRatio())
	}
	// SLO rules, shadow_beats_live and planner_worse_than_sc alike.
	for _, a := range sess.Alerts() {
		s.alertState.With(id, a.Rule.Name).Set(float64(a.State))
	}

	if st, ok := sess.PlannerStats(); ok {
		s.plannerHitRat.With(id).Set(st.PredictedHitRatio)
		s.plannerDepth.With(id).Set(float64(st.PlanDepth))
		s.plannerConf.With(id).Set(st.Confidence)
		s.plannerPlans.With(id).Set(float64(st.Plans))
		s.plannerMispred.With(id).Set(float64(st.Mispredicts))
	}

	if rep := sess.ShadowReport(); rep != nil {
		publishShadowRows(s.shadowCost, s.shadowRatio, s.shadowBest, id, rep)
	}
}

// publishShadowRows writes a shadow report's rows to one entry's cost,
// ratio and best-policy gauges; the live row writes its best flag only.
// The flag is read by label: a self-check shadow shares the live
// policy's label, and both rows then write the same value.
func publishShadowRows(cost, ratio, best *obs.GaugeVec, id string, rep *datacache.ShadowReport) {
	for _, st := range rep.Standings {
		if !st.Live {
			cost.With(id, st.Policy).Set(st.Cost)
			ratio.With(id, st.Policy).Set(st.CostOverOptimum)
		}
		best.With(id, st.Policy).Set(boolGauge(st.Policy == rep.Best))
	}
}

// costOverOpt is the gauge-side competitive ratio (1 while the optimum
// is zero, matching datacache's convention).
func costOverOpt(cost, opt float64) float64 {
	if opt > 0 {
		return cost / opt
	}
	return 1
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// dropSessionGauges removes a closed session's metric series so /metrics
// does not grow without bound. It reads the labels off the closed
// session: every server (CostBreakdown lists all m), every alert rule,
// and the live and shadow policies. It takes the entry lock itself;
// callers must not hold it.
func (s *Server) dropSessionGauges(id string, e *sessionEntry) {
	_ = e.lk.lock(context.Background()) // never fails: the context cannot be canceled
	breakdown := e.sess.CostBreakdown()
	alerts := e.sess.Alerts()
	policies := append([]string{e.sess.Policy()}, e.sess.ShadowNames()...)
	e.lk.unlock()
	s.sessionCost.Delete(id)
	s.sessionOpt.Delete(id)
	s.sessionRatio.Delete(id)
	s.sessionLive.Delete(id)
	s.sessionWRat.Delete(id)
	s.plannerHitRat.Delete(id)
	s.plannerDepth.Delete(id)
	s.plannerConf.Delete(id)
	s.plannerPlans.Delete(id)
	s.plannerMispred.Delete(id)
	for _, sc := range breakdown {
		srv := strconv.Itoa(int(sc.Server))
		s.serverCost.Delete(id, srv, "caching")
		s.serverCost.Delete(id, srv, "transfer")
	}
	for _, p := range policies {
		s.shadowCost.Delete(id, p)
		s.shadowRatio.Delete(id, p)
		s.shadowBest.Delete(id, p)
	}
	for _, a := range alerts {
		s.alertState.Delete(id, a.Rule.Name)
	}
	// Retire the session's retained spans the same way: a closed session
	// must not keep occupying the bounded span store.
	s.tracer.DropSession(id)
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionCreateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Origin == 0 {
		req.Origin = 1
	}
	shadows, err := datacache.WithShadowPolicies(req.Shadows...)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	entry := &sessionEntry{lk: newEntryLock()}
	// The id is minted before the session exists so the recorder stream
	// is declared under it from the first record.
	id := fmt.Sprintf("sn-%d", s.nextID.Add(1))
	sess, err := datacache.NewSession(req.M, req.Origin, req.Model.toModel(), &datacache.SessionOptions{
		Policy:         req.Policy,
		TraceCap:       s.traceCap,
		SLOWindow:      s.sloWindow,
		Observer:       s.engineObserver(entry),
		ShadowPolicies: shadows,
		ShadowMargin:   s.shadowMargin,
		Recorder:       s.recorder,
		RecordSession:  id,
	})
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	entry.sess = sess
	// The SLO rules, shadow_beats_live and planner_worse_than_sc share one
	// transition hook; the last two setters are no-ops without their rule.
	hook := s.alertHook(id)
	if slo := sess.SLO(); slo != nil {
		slo.SetTransitionHook(hook)
	}
	sess.SetShadowTransitionHook(hook)
	sess.SetPlannerTransitionHook(hook)
	s.sessions.put(id, entry)
	s.sessionsOpen.Add(1)
	w.Header().Set("Location", "/v1/session/"+id)
	writeJSON(w, http.StatusCreated, sessionState(id, sess))
}

// alertHook builds the transition hook every alert tracker of a session
// shares (SLO rules and shadow_beats_live alike): count the transition,
// annotate the history timeline and WARN-log it. The dc_alert_state
// gauge is read at scrape time like the session's other series. The
// hook runs under the entry lock of whichever Serve triggers the
// transition; the counter write is lock-free.
func (s *Server) alertHook(id string) obs.TransitionHook {
	return func(rule datacache.AlertRule, from, to datacache.AlertState, at, value float64) {
		s.alertTrans.With(rule.Name, to.String()).Inc()
		// Pin the transition onto the history timeline (wall-clock
		// stamped by the store), linking a firing alert to the
		// session's highest-regret retained trace as the exemplar a
		// responder should open first.
		ann := tsdb.Annotation{
			Scope: id, Rule: rule.Name, From: from, To: to,
			Value: value, ModelAt: at,
		}
		if to == datacache.AlertFiring {
			if ts := s.tracer.Traces(obs.TraceQuery{Session: id, Limit: 1}); len(ts) > 0 {
				ann.TraceID = ts[0].TraceID
			}
		}
		s.history.Annotate(ann)
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "slo alert transition",
			slog.String("session", id),
			slog.String("alert", rule.Name),
			slog.String("from", from.String()),
			slog.String("to", to.String()),
			slog.Float64("at", at),
			slog.Float64("value", value),
		)
	}
}

// lockEntry acquires a session's or pool's entry lock honoring the
// request context: a client that disconnects while queued behind a long
// batch stops waiting and its slot is released. kind ("session" or
// "pool") names the entry in the error. Reports whether the lock is
// held; on failure the 499 envelope has already been written.
func (s *Server) lockEntry(w http.ResponseWriter, r *http.Request, kind string, lk entryLock) bool {
	if err := lk.lock(r.Context()); err != nil {
		s.httpError(w, r, StatusClientClosedRequest,
			fmt.Errorf("client gone while waiting for %s lock: %v", kind, err))
		return false
	}
	return true
}

// acquireServeSlot admits a serve operation (single or batch) against a
// session's or pool's inflight budget, shedding excess load with 429 +
// Retry-After before the operation ever queues on the entry lock. On
// success the caller must release the slot with inflight.Add(-1).
func (s *Server) acquireServeSlot(w http.ResponseWriter, r *http.Request, kind, id string, inflight *atomic.Int64) bool {
	if inflight.Add(1) > s.inflight {
		inflight.Add(-1)
		s.batchShed.Inc()
		w.Header().Set("Retry-After", "1")
		s.httpError(w, r, http.StatusTooManyRequests,
			fmt.Errorf("%s %q has %d serve operations inflight (budget %d)", kind, id, s.inflight, s.inflight))
		return false
	}
	return true
}

func (s *Server) handleSessionOp(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/session/")
	parts := strings.SplitN(rest, "/", 2)
	id := parts[0]
	op := ""
	if len(parts) == 2 {
		op = parts[1]
	}
	entry, ok := s.sessions.get(id)
	if !ok {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return
	}
	switch {
	case op == "request" && r.Method == http.MethodPost:
		var req StreamAppendRequest
		if !s.readJSON(w, r, &req) {
			return
		}
		if !s.acquireServeSlot(w, r, "session", id, &entry.inflight) {
			return
		}
		defer entry.inflight.Add(-1)
		if !s.lockEntry(w, r, "session", entry.lk) {
			return
		}
		root := obs.SpanFrom(r.Context())
		if root != nil {
			root.Session = id
			entry.sess.SetRecordTraceID(root.TraceID)
		}
		span := root.StartChild("serve")
		entry.evs = entry.evs[:0]
		start := time.Now()
		d, err := entry.sess.Serve(req.Server, req.Time)
		elapsed := time.Since(start)
		n := entry.sess.N()
		closed := entry.sess.Closed()
		events := eventsLabel(entry.evs)
		entry.lk.unlock()
		if err != nil {
			if span != nil {
				span.Session = id
				span.Error = true
				span.End()
			}
			status := http.StatusBadRequest
			if closed {
				status = http.StatusConflict
			}
			s.httpError(w, r, status, err)
			return
		}
		annotateServeSpan(span, id, d, events,
			shadowDivergenceLabel(entry.sess.ShadowNames(), d.ShadowDiverged))
		if root != nil && root.Sampled() {
			s.decisionSec.ObserveExemplar(elapsed.Seconds(), root.TraceID)
		} else {
			s.decisionSec.Observe(elapsed.Seconds())
		}
		writeJSON(w, http.StatusOK, SessionDecision{
			ID:      id,
			N:       n,
			Server:  d.Server,
			Time:    d.Time,
			Hit:     d.Hit,
			From:    d.From,
			Cost:    d.Cost,
			Optimal: d.Optimal,
			Ratio:   d.Ratio,
			Regret:  d.Regret,
		})
	case op == "requests" && r.Method == http.MethodPost:
		s.handleSessionBatch(w, r, id, entry)
	case op == "" && r.Method == http.MethodGet:
		if !s.lockEntry(w, r, "session", entry.lk) {
			return
		}
		state := sessionState(id, entry.sess)
		entry.lk.unlock()
		writeJSON(w, http.StatusOK, state)
	case op == "schedule" && r.Method == http.MethodGet:
		if !s.lockEntry(w, r, "session", entry.lk) {
			return
		}
		sched := entry.sess.Schedule()
		entry.lk.unlock()
		writeJSON(w, http.StatusOK, sched)
	case op == "trace" && r.Method == http.MethodGet:
		if !s.lockEntry(w, r, "session", entry.lk) {
			return
		}
		events := entry.sess.Trace()
		dropped := entry.sess.TraceDropped()
		entry.lk.unlock()
		if events == nil {
			events = []datacache.TraceEvent{} // render [] rather than null
		}
		writeJSON(w, http.StatusOK, SessionTraceResponse{
			ID: id, Cap: s.traceCap, Dropped: dropped, Events: events,
		})
	case op == "slo" && r.Method == http.MethodGet:
		if !s.lockEntry(w, r, "session", entry.lk) {
			return
		}
		slo := entry.sess.SLO()
		var snap datacache.SLOSnapshot
		if slo != nil {
			snap = slo.Snapshot()
		}
		breakdown := entry.sess.CostBreakdown()
		state := sessionState(id, entry.sess)
		entry.lk.unlock()
		if slo == nil {
			s.httpError(w, r, http.StatusNotFound, fmt.Errorf("session %q has SLO tracking disabled", id))
			return
		}
		writeJSON(w, http.StatusOK, SessionSLOResponse{
			ID:        id,
			Policy:    state.Policy,
			Cost:      state.Cost,
			Optimal:   state.Optimal,
			Ratio:     state.Ratio,
			SLO:       snap,
			Breakdown: breakdown,
		})
	case op == "shadow" && r.Method == http.MethodGet:
		if !s.lockEntry(w, r, "session", entry.lk) {
			return
		}
		rep := entry.sess.ShadowReport()
		state := sessionState(id, entry.sess)
		entry.lk.unlock()
		if rep == nil {
			s.httpError(w, r, http.StatusNotFound, fmt.Errorf("session %q has no shadow policies", id))
			return
		}
		writeJSON(w, http.StatusOK, SessionShadowResponse{
			ID:           id,
			Policy:       state.Policy,
			N:            state.N,
			Cost:         state.Cost,
			Optimal:      state.Optimal,
			Ratio:        state.Ratio,
			ShadowReport: *rep,
		})
	case op == "record" && r.Method == http.MethodGet:
		s.handleRecordDownload(w, r, id)
	case op == "" && r.Method == http.MethodDelete:
		if !s.lockEntry(w, r, "session", entry.lk) {
			return
		}
		sched, err := entry.sess.Close()
		state := sessionState(id, entry.sess)
		entry.lk.unlock()
		if err != nil {
			s.httpError(w, r, http.StatusInternalServerError, err)
			return
		}
		if s.sessions.delete(id) { // racing DELETEs must tear down once
			s.sessionsOpen.Add(-1)
			s.dropSessionGauges(id, entry)
		}
		writeJSON(w, http.StatusOK, SessionCloseResponse{State: state, Schedule: sched})
	default:
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown session operation %q %s", op, r.Method))
	}
}

// collectAlerts snapshots every live session's non-inactive alerts. The
// registry iteration is shard-local — it snapshots one shard at a time
// under that shard's read lock, then takes each entry lock in turn, so a
// full alert sweep never stalls serving on more than one session at a
// time.
func (s *Server) collectAlerts() ([]SessionAlert, int) {
	var out []SessionAlert
	firing := 0
	s.sessions.forEach(func(id string, entry *sessionEntry) {
		_ = entry.lk.lock(context.Background())
		// Merged standings: SLO rules plus the shadow_beats_live rule.
		alerts := entry.sess.Alerts()
		entry.lk.unlock()
		for _, a := range alerts {
			if a.State == datacache.AlertInactive {
				continue
			}
			if a.State == datacache.AlertFiring {
				firing++
			}
			out = append(out, SessionAlert{Session: id, Alert: a})
		}
	})
	// Metric anomalies from the history store ride the same listing;
	// their Session field carries the watched series key.
	for _, a := range s.history.AnomalyAlerts() {
		if a.Alert.State == datacache.AlertFiring {
			firing++
		}
		out = append(out, SessionAlert{Session: a.Series, Alert: a.Alert})
	}
	// Firing first, then pending, then resolved; stable within a state.
	rank := map[datacache.AlertState]int{
		datacache.AlertFiring:   0,
		datacache.AlertPending:  1,
		datacache.AlertResolved: 2,
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := rank[out[i].Alert.State], rank[out[j].Alert.State]
		if ri != rj {
			return ri < rj
		}
		return out[i].Session < out[j].Session
	})
	return out, firing
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	alerts, firing := s.collectAlerts()
	if alerts == nil {
		alerts = []SessionAlert{} // render [] rather than null
	}
	writeJSON(w, http.StatusOK, AlertsResponse{Firing: firing, Alerts: alerts})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	_, firing := s.collectAlerts()
	open := s.sessions.len()
	status := "ready"
	if firing > 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, ReadyResponse{
		Status:       status,
		Version:      Version,
		SessionsOpen: open,
		FiringAlerts: firing,
	})
}
