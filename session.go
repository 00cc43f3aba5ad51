package datacache

import (
	"context"
	"fmt"

	"datacache/internal/engine"
	"datacache/internal/model"
	"datacache/internal/obs"
	"datacache/internal/offline"
	"datacache/internal/planner"
	"datacache/internal/recorder"
)

// TraceEvent is one typed entry of a session's decision trace: a request
// arriving, a cache hit, a transfer, a drop, a speculative deadline firing,
// or an epoch restart. It is the same schema the simulator's Recorder uses
// (internal/cloudsim.TraceEvent), so offline and live traces are
// interchangeable.
type TraceEvent = obs.Event

// Observer receives every TraceEvent as it happens; see
// SessionOptions.Observer.
type Observer = obs.Observer

// Trace event kinds, re-exported for callers inspecting Session traces.
const (
	TraceRequest    = obs.KindRequest
	TraceHit        = obs.KindHit
	TraceTransfer   = obs.KindTransfer
	TraceDrop       = obs.KindDrop
	TraceTimer      = obs.KindTimer
	TraceEpochReset = obs.KindEpochReset
)

// ServerCost is one server's share of a session's accumulated cost; see
// Session.CostBreakdown.
type ServerCost = engine.ServerCost

// SLO is the rolling-window competitive-ratio tracker behind
// Session.SLO: windowed ratio, EWMA, and alert rules with hysteresis.
type SLO = obs.SLO

// SLOSnapshot is one point-in-time SLO reading.
type SLOSnapshot = obs.SLOSnapshot

// AlertRule configures one alert over the windowed competitive ratio.
type AlertRule = obs.Rule

// Alert is a snapshot of one rule's standing.
type Alert = obs.Alert

// AlertState is an alert rule's lifecycle position.
type AlertState = obs.AlertState

// Alert lifecycle states, re-exported for callers inspecting Session
// alerts.
const (
	AlertInactive = obs.AlertInactive
	AlertPending  = obs.AlertPending
	AlertFiring   = obs.AlertFiring
	AlertResolved = obs.AlertResolved
)

// Theorem3Rule is the default SLO alert: the windowed ratio exceeding
// the paper's 3-competitive bound (Theorem 3).
func Theorem3Rule() AlertRule { return obs.Theorem3Rule() }

// SessionOptions selects and parameterizes the policy behind a Session.
// The zero value (or a nil *SessionOptions) is the paper's canonical SC.
type SessionOptions struct {
	// Policy selects the live policy as a PolicySpec string, parameters
	// included: "sc" (the default when empty), "sc:epoch=16",
	// "ttl:window=0.5", "adaptive", "migrate", "replicate" or
	// "hybrid:horizon=8,order=2".
	Policy string
	// TraceCap, when positive, keeps a bounded ring of the most recent
	// TraceCap decision events, readable via Trace. Zero disables the ring.
	TraceCap int
	// Observer, when set, additionally receives every decision event as it
	// happens (metrics hooks, live dashboards). It runs synchronously on
	// the serving path, so it must be cheap.
	Observer Observer
	// SLOWindow, when positive, tracks the competitive ratio over a
	// rolling window of that many requests (readable via SLO), with
	// SLORules evaluated after every served request. Zero disables SLO
	// tracking.
	SLOWindow int
	// SLORules overrides the alert rules evaluated on the windowed ratio.
	// Nil with SLOWindow > 0 installs the single Theorem3Rule.
	SLORules []AlertRule
	// ShadowPolicies, when non-empty, evaluates these policies in
	// lockstep with live serving on private copies of the cluster state,
	// accumulating what each would have paid on exactly this traffic.
	// Build the slice with WithShadowPolicies(specs...); read the
	// standings via ShadowReport. At most engine.MaxShadows
	// policies; labels must be unique among the shadows, and one may
	// repeat the live policy's label (the self-check, reported on a line
	// of its own).
	ShadowPolicies []PolicySpec
	// ShadowWindow sets the rolling cost window (requests) behind the
	// shadow-vs-live windowed comparison. Zero falls back to SLOWindow,
	// then DefaultShadowWindow.
	ShadowWindow int
	// ShadowMargin configures the shadow_beats_live alert: it breaches
	// when the live policy's windowed cost exceeds the best shadow's by
	// this fraction. Zero means DefaultShadowMargin; negative disables
	// the alert while keeping the shadows.
	ShadowMargin float64
	// Recorder, when set, captures every served request to the flight
	// recorder: NewSession opens a stream (declaring the instance and
	// policy), each Serve appends one serve record, and Close retires the
	// stream. Each record is encoded on the serving goroutine; a
	// recorder error never fails the serve (the writer counts the drop).
	Recorder *recorder.Writer
	// RecordSession labels the recorder stream with the serving-layer
	// session id ("sn-3", "pl-1"); RecordTenant and RecordItem scope pool
	// streams. All ignored when Recorder is nil.
	RecordSession string
	RecordTenant  string
	RecordItem    string
}

// Decision reports what one live request caused: whether it hit a cached
// copy, where a miss was served from, and the running cost picture —
// accumulated policy cost, the exact off-line optimum of the prefix served
// so far, and their ratio.
type Decision struct {
	Server  ServerID // requested server
	Time    float64  // request time
	Hit     bool     // true when a live copy served it in place
	From    ServerID // transfer source on a miss (0 on a hit)
	Drops   int      // copies dropped while this request was served
	Cost    float64  // policy cost accumulated through this request
	Optimal float64  // off-line optimum of the prefix (FastDP, exact)
	Ratio   float64  // Cost / Optimal (1 when Optimal == 0)
	// Regret is this request's cost divergence from the clairvoyant
	// optimum: (online cost delta) − (optimum delta). Regrets telescope —
	// summed over every request they equal Cost − Optimal exactly — so
	// high-regret requests are precisely the ones that pushed the ratio.
	// Negative regret means the optimum's DP paid more for this prefix
	// step than the online policy did.
	Regret float64
	// ShadowDiverged is a bitmask over the session's shadow policies:
	// bit i is set when ShadowNames()[i] decided this request differently
	// from the live policy (hit/miss outcome or transfer source). Zero
	// without shadows, or when every shadow agreed. A bitmask rather
	// than a slice keeps the serve path allocation-free.
	ShadowDiverged uint64 `json:",omitempty"`
}

// Session serves live traffic one request at a time with no lookahead: each
// Serve feeds the request to the shared decision engine (the same engine.SC
// core behind SpeculativeCaching and the simulator policies) and, in
// lockstep, to the streaming off-line dynamic program, so every decision
// comes back with an exact competitive-ratio readout for the traffic seen so
// far. After n Serve calls the accumulated cost equals exactly what
// Serve(SpeculativeCaching{...}, seq, cm) reports for the same n requests.
// The cost is read from the stream's per-server ledger in O(M), however
// long the session has run; only Schedule and Close sort and merge the
// schedule.
//
// A Session is not safe for concurrent use; callers (such as the /v1/session
// HTTP endpoint) must serialize access.
type Session struct {
	policy string
	cm     CostModel
	stream *engine.Stream
	inc    *offline.Incremental
	ring   *obs.Ring // nil unless SessionOptions.TraceCap > 0
	slo    *obs.SLO  // nil unless SessionOptions.SLOWindow > 0
	closed bool
	final  *Schedule

	shadows      *engine.ShadowSet // nil unless SessionOptions.ShadowPolicies set
	shadowAlert  *obs.Tracker      // nil unless shadows with a margin rule
	shadowWindow int
	shadowMargin float64

	hybrid       *planner.Hybrid // nil unless the live policy is hybrid
	plannerAlert *obs.Tracker    // nil unless hybrid with an sc shadow and a margin rule
	scShadowIdx  int             // index of the "sc" shadow the planner alert compares against

	rec       *recorder.Writer // nil unless SessionOptions.Recorder set
	recStream uint32
	recTrace  string // trace id stamped on the next serve record

	prevCost, prevOpt float64 // last served totals, for SLO deltas
}

// NewSession opens a live serving session over m servers with the initial
// copy at origin (time 0). A nil opts selects the canonical SC policy.
func NewSession(m int, origin ServerID, cm CostModel, opts *SessionOptions) (*Session, error) {
	if opts == nil {
		opts = &SessionOptions{}
	}
	// The live policy is one PolicySpec; the decider construction
	// validates it.
	var sp PolicySpec
	if opts.Policy != "" {
		var err error
		if sp, err = parsePolicySpec(opts.Policy); err != nil {
			return nil, err
		}
	}
	d, err := sp.decider()
	if err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	var ring *obs.Ring
	var ringObs obs.Observer // stays a true nil interface when untraced
	if opts.TraceCap > 0 {
		ring = &obs.Ring{Cap: opts.TraceCap}
		ringObs = ring
	}
	observer := obs.Multi(ringObs, opts.Observer)
	var hybrid *planner.Hybrid
	switch dd := d.(type) {
	case *engine.SC:
		if observer != nil {
			// Epoch restarts happen inside the decider, invisible to the
			// stream's action ledger; surface them through the analysis hook.
			dd.OnReset = func(t float64, keep model.ServerID) {
				observer.Observe(obs.Event{At: t, Kind: obs.KindEpochReset, Server: int(keep)})
			}
		}
	case *planner.Hybrid:
		hybrid = dd
		if observer != nil {
			dd.OnReset = func(t float64, keep model.ServerID) {
				observer.Observe(obs.Event{At: t, Kind: obs.KindEpochReset, Server: int(keep)})
			}
			dd.OnMispredict = func(t float64, predicted, actual model.ServerID) {
				observer.Observe(obs.Event{At: t, Kind: obs.KindMispredict, Server: int(actual), From: int(predicted)})
			}
		}
	}
	stream, err := engine.NewStream(d, engine.State{M: m, Origin: origin, Model: cm})
	if err != nil {
		return nil, err
	}
	stream.SetObserver(observer)
	inc, err := offline.NewIncremental(m, origin, cm)
	if err != nil {
		return nil, err
	}
	s := &Session{policy: sp.Spec(), cm: cm, stream: stream, inc: inc, ring: ring, hybrid: hybrid, scShadowIdx: -1}
	if hybrid != nil {
		// A hybrid live policy always runs its own SC fallback as a shadow
		// — the built-in self-check that planning never loses to the pure
		// online policy — unless the caller already declared one labeled
		// "sc". The options are copied, not mutated.
		hasSC := false
		for _, shp := range opts.ShadowPolicies {
			if shp.Name() == "sc" {
				hasSC = true
			}
		}
		if !hasSC {
			o := *opts
			o.ShadowPolicies = append(append([]PolicySpec{}, opts.ShadowPolicies...),
				PolicySpec{Window: sp.Window, EpochTransfers: sp.EpochTransfers, Label: "sc"})
			opts = &o
		}
	}
	if err := s.initShadows(m, origin, opts); err != nil {
		return nil, err
	}
	if hybrid != nil && s.shadows != nil {
		for i, name := range s.shadows.Names() {
			if name == "sc" {
				s.scShadowIdx = i
			}
		}
	}
	s.open(m, origin, opts)
	return s, nil
}

// open starts an incarnation on engine state that is new or has just
// been reset: it zeroes the per-serve state, empties the trace ring,
// builds the SLO and alert trackers the options ask for, and opens the
// recorder stream. NewSession and revive share it, so a revived session
// starts exactly as a new one with the same options would.
func (s *Session) open(m int, origin ServerID, opts *SessionOptions) {
	s.prevCost, s.prevOpt = 0, 0
	s.recTrace = ""
	s.closed, s.final = false, nil
	if s.ring != nil {
		s.ring.Reset()
	}
	s.slo = nil
	if opts.SLOWindow > 0 {
		rules := opts.SLORules
		if rules == nil {
			rules = []AlertRule{Theorem3Rule()}
		}
		s.slo = obs.NewSLO(opts.SLOWindow, rules...)
	}
	s.shadowAlert, s.plannerAlert = nil, nil
	if s.shadows != nil && s.shadowMargin > 0 {
		s.shadowAlert = obs.NewTracker(shadowRule(s.shadowMargin))
		if s.scShadowIdx >= 0 {
			s.plannerAlert = obs.NewTracker(plannerRule(s.shadowMargin))
		}
	}
	s.rec, s.recStream = nil, 0
	if opts.Recorder != nil && !opts.Recorder.Closed() {
		s.rec = opts.Recorder
		s.recStream = s.rec.OpenStream(recorder.StreamInfo{
			Session: opts.RecordSession,
			Tenant:  opts.RecordTenant,
			Item:    opts.RecordItem,
			M:       m,
			Origin:  int(origin),
			Mu:      s.cm.Mu,
			Lambda:  s.cm.Lambda,
			// The full canonical spec, so replay rebuilds the identical
			// decider parameters.
			Policy: s.policy,
		})
	}
}

// revive starts a new incarnation of a closed session: the stream, the
// streaming DP and the shadows reset in place, keeping their storage,
// and open runs again with opts. The session must have been built by
// NewSession with the same m, origin and options but for the record
// labels; it then serves exactly as a new one would. A Pool hands an
// evicted item's session to the key it admits this way.
func (s *Session) revive(m int, origin ServerID, opts *SessionOptions) error {
	if err := s.stream.Reset(); err != nil {
		return err
	}
	s.inc.Reset()
	if s.shadows != nil {
		if err := s.shadows.Reset(); err != nil {
			return err
		}
	}
	s.open(m, origin, opts)
	return nil
}

// SetRecordTraceID stamps the W3C trace id carried by the next serve
// record(s), linking recording entries back to distributed-trace spans.
// It shares the session's synchronization: call it only while no Serve
// is in flight (the HTTP layer stamps it under the entry lock). A
// no-op without a recorder.
func (s *Session) SetRecordTraceID(id string) {
	if s.rec != nil {
		s.recTrace = id
	}
}

// Serve handles one live request. Times must be strictly increasing and
// positive; servers must lie in 1..m. The returned Decision carries the
// engine's verdict plus the exact prefix optimum from the streaming DP.
func (s *Session) Serve(server ServerID, t float64) (Decision, error) {
	if s.closed {
		return Decision{}, fmt.Errorf("datacache: session is closed")
	}
	ed, err := s.stream.Serve(server, t)
	if err != nil {
		return Decision{}, err
	}
	if err := s.inc.Append(model.Request{Server: server, Time: t}); err != nil {
		return Decision{}, fmt.Errorf("datacache: session state diverged: %v", err)
	}
	d := Decision{
		Server:  ed.Server,
		Time:    ed.Time,
		Hit:     ed.Hit,
		From:    ed.From,
		Drops:   ed.Drops,
		Cost:    s.stream.Cost(s.cm),
		Optimal: s.inc.Cost(),
	}
	d.Ratio = ratioOf(d.Cost, d.Optimal)
	d.Regret = (d.Cost - s.prevCost) - (d.Optimal - s.prevOpt)
	s.observeShadows(server, t, &d)
	if s.slo != nil {
		s.slo.Observe(t, d.Cost-s.prevCost, d.Optimal-s.prevOpt)
	}
	s.prevCost, s.prevOpt = d.Cost, d.Optimal
	if s.rec != nil {
		// A failed or post-close record is counted by the writer; it
		// must not fail the serve.
		_ = s.rec.Append(recorder.Record{
			Kind:    recorder.KindServe,
			Stream:  s.recStream,
			Time:    d.Time,
			Server:  int(d.Server),
			From:    int(d.From),
			Hit:     d.Hit,
			Drops:   d.Drops,
			Cost:    d.Cost,
			Optimal: d.Optimal,
			TraceID: s.recTrace,
		})
	}
	return d, nil
}

// ServeBatchResult reports how a batch fared: one Decision per applied
// request, the index of the first rejected request (-1 when the whole
// batch applied) and the post-batch cost picture.
type ServeBatchResult struct {
	// Decisions holds one entry per applied request, in order; identical
	// to what the same requests served one Serve call at a time would
	// have returned.
	Decisions []Decision
	// FirstRejected is the index of the first request the engine refused
	// (out-of-range server, non-monotonic time), or -1 when every request
	// applied. Requests before it are applied and stay applied; requests
	// after it were not attempted.
	FirstRejected int
	// RejectReason explains the rejection ("" when FirstRejected is -1).
	RejectReason string
	// Cost, Optimal and Ratio snapshot the session after the batch —
	// equal to the last decision's readout when any request applied.
	Cost    float64
	Optimal float64
	Ratio   float64
}

// ServeBatch serves an ordered batch of requests under one call: each
// request runs through exactly the same path as Serve (engine decision,
// streaming-DP append, SLO observation), so a batch of n requests leaves
// the session in a state indistinguishable from n single Serve calls.
//
// Failure is partial: the first request the engine rejects stops the
// batch, with the prefix before it applied and reported in Decisions and
// FirstRejected naming the offender. A closed session rejects the whole
// batch with an error instead.
//
// The context is honored between requests: when ctx is canceled
// mid-batch, ServeBatch stops before the next request and returns the
// partial result alongside the context's error.
func (s *Session) ServeBatch(ctx context.Context, reqs []Request) (*ServeBatchResult, error) {
	if s.closed {
		return nil, fmt.Errorf("datacache: session is closed")
	}
	ctx = orBackground(ctx)
	res := &ServeBatchResult{
		Decisions:     make([]Decision, 0, len(reqs)),
		FirstRejected: -1,
	}
	for i, r := range reqs {
		if err := ctx.Err(); err != nil {
			s.snapshotInto(res)
			return res, err
		}
		d, err := s.Serve(r.Server, r.Time)
		if err != nil {
			res.FirstRejected = i
			res.RejectReason = err.Error()
			break
		}
		res.Decisions = append(res.Decisions, d)
	}
	s.snapshotInto(res)
	return res, nil
}

// orBackground normalizes a nil context to context.Background, so both
// batch paths (Session.ServeBatch, Pool.ServeBatch) treat a nil ctx as
// "never canceled" instead of panicking on ctx.Err.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// snapshotInto fills the post-batch cost/optimum/ratio readout.
func (s *Session) snapshotInto(res *ServeBatchResult) {
	res.Cost = s.Cost()
	res.Optimal = s.OptimalCost()
	res.Ratio = ratioOf(res.Cost, res.Optimal)
}

// N returns the number of requests served.
func (s *Session) N() int { return s.stream.N() }

// Hits returns how many requests were served by a live copy in place.
func (s *Session) Hits() int { return s.stream.Hits() }

// Transfers returns how many copy transfers the policy has performed.
func (s *Session) Transfers() int { return s.stream.Transfers() }

// Drops returns how many copies the policy has dropped (deadline
// expiries and policy drops alike).
func (s *Session) Drops() int { return s.stream.Drops() }

// Cost returns the policy cost accumulated through the last request, in
// O(M): bit for bit the Cost of Schedule().
func (s *Session) Cost() float64 { return s.stream.Cost(s.cm) }

// OptimalCost returns the exact off-line optimum of the requests served so
// far (what a clairvoyant scheduler would have paid).
func (s *Session) OptimalCost() float64 { return s.inc.Cost() }

// Ratio returns Cost / OptimalCost, the live competitive ratio (1 while the
// optimum is zero).
func (s *Session) Ratio() float64 { return ratioOf(s.Cost(), s.OptimalCost()) }

// CostBreakdown attributes the accumulated cost per server: caching cost
// for the time each server held a copy, transfer cost for the copies it
// received. The entries' Caching + Transfer sum to Cost() up to
// floating-point accumulation order.
func (s *Session) CostBreakdown() []ServerCost { return s.stream.CostBreakdown(s.cm) }

// SLO returns the rolling-window ratio tracker, or nil when the session
// was opened without SLOWindow. The tracker shares the session's
// synchronization: read it only while no Serve is in flight.
func (s *Session) SLO() *SLO { return s.slo }

// Policy returns the canonical spec of the session's policy (Spec()).
func (s *Session) Policy() string { return s.policy }

// PlannerStats is the hybrid planner's point-in-time readout: plan
// counts and depth, predicted-vs-actual hit ratio, rolling confidence,
// and whether the confidence gate is open.
type PlannerStats = planner.Stats

// PlannerStats returns the hybrid planner readout, or false when the
// session's live policy is not hybrid. It shares the session's
// synchronization: read it only while no Serve is in flight.
func (s *Session) PlannerStats() (PlannerStats, bool) {
	if s.hybrid == nil {
		return PlannerStats{}, false
	}
	return s.hybrid.Stats(), true
}

// LiveCopies returns how many copies are currently alive.
func (s *Session) LiveCopies() int { return s.stream.Live() }

// Trace returns the retained decision events in arrival order, or nil
// when the session was opened without a TraceCap. The slice is shared
// with the ring; treat it as read-only.
func (s *Session) Trace() []TraceEvent {
	if s.ring == nil {
		return nil
	}
	return s.ring.Events()
}

// TraceDropped reports how many events the bounded trace has evicted
// (0 when tracing is disabled or the ring has not wrapped).
func (s *Session) TraceDropped() int {
	if s.ring == nil {
		return 0
	}
	return s.ring.Dropped()
}

// Closed reports whether Close has been called.
func (s *Session) Closed() bool { return s.closed }

// Schedule returns the schedule so far: live copies are truncated at the
// last request while the session is open, and closed out exactly once the
// session is closed. The returned schedule is the caller's to keep.
func (s *Session) Schedule() *Schedule { return s.stream.Snapshot() }

// Close ends the session at the time of the last request, finalizing the
// schedule. Further Serve calls fail; accessors keep reporting the final
// state.
func (s *Session) Close() (*Schedule, error) {
	if s.closed {
		return s.final, nil
	}
	sched, err := s.stream.Finish(s.stream.Now())
	if err != nil {
		return nil, err
	}
	s.closed = true
	s.final = sched
	if s.rec != nil {
		s.rec.CloseStream(s.recStream)
	}
	return sched, nil
}

func ratioOf(cost, opt float64) float64 {
	if opt > 0 {
		return cost / opt
	}
	return 1
}
