// Package engine is the single event-driven decision core behind every
// online policy in the repository. A Decider owns the policy state (which
// servers hold copies, their speculative deadlines) and reacts to two kinds
// of events — a request arriving at a server, and a timer it armed earlier —
// by emitting Actions (transfer a copy, drop a copy, arm a timer). It never
// touches schedules, simulators or HTTP: drivers execute the actions.
//
// Three drivers consume the same deciders:
//
//   - Stream (below) executes actions against its own copy ledger and
//     builds a model.Schedule; Replay wraps it for whole-sequence runs.
//     internal/online's Runner types are thin adapters over Replay.
//   - internal/cloudsim adapts Actions onto the discrete-event simulator's
//     Env (Transfer/Drop/SetTimer), so the simulator exercises the exact
//     production rules.
//   - datacache.Session feeds a Stream one live request at a time and pairs
//     it with offline.Incremental for a running competitive-ratio readout.
//
// The SC decider in sc.go carries the paper's Speculative Caching rules —
// the Δt = λ/μ window, last-copy protection, grouped expiry, epoch resets —
// in exactly one place; TTL(τ), per-server heterogeneous windows, adaptive
// and randomized windows are all parameterizations of it.
package engine

import (
	"fmt"

	"datacache/internal/model"
	"datacache/internal/obs"
)

// State describes the cluster a Decider is about to serve: M servers, the
// initial copy on Origin, and the cost model (used by SC to derive the
// default window Δt = λ/μ).
type State struct {
	M      int
	Origin model.ServerID
	Model  model.CostModel
}

// ActionKind discriminates Action.
type ActionKind uint8

const (
	// ActTransfer copies the item From -> Server at Time (cost λ).
	ActTransfer ActionKind = iota
	// ActDrop deletes the live copy on Server at Time.
	ActDrop
	// ActArmTimer asks the driver to call OnTimer at Time; Server records
	// which copy's deadline the timer watches (drivers with per-server
	// timers, like the simulator, need it).
	ActArmTimer
)

// Action is one decision step. Deciders emit them; drivers execute them in
// order.
type Action struct {
	Kind   ActionKind
	From   model.ServerID // transfer source (ActTransfer only)
	Server model.ServerID // transfer target, dropped holder, or timer key
	Time   float64        // action instant; the deadline for ActArmTimer
}

// Decider is an online caching policy reduced to its decision function. The
// action slices it returns may be reused by the next call; drivers must
// execute them before calling again.
type Decider interface {
	// Name identifies the decider in logs and reports.
	Name() string
	// Init resets the decider for a fresh run and returns its opening
	// actions (typically arming the origin copy's first timer). It must
	// reset every piece of run state, because Stream.Reset re-runs a used
	// decider through Init and relies on it deciding exactly as a new one.
	Init(st State) []Action
	// OnRequest reacts to a request at server: the returned actions must
	// leave a live copy there. Requests arrive in strictly increasing time
	// order.
	OnRequest(server model.ServerID, t float64) ([]Action, error)
	// OnTimer reacts to a timer armed earlier firing at t. Timers may be
	// stale (the copy was refreshed or dropped since); deciders detect that
	// and return nil.
	OnTimer(t float64) []Action
}

// Decision reports how one streamed request was served.
type Decision struct {
	Server model.ServerID
	Time   float64
	Hit    bool           // served by a live local copy
	From   model.ServerID // transfer source when Hit is false
	Drops  int            // copies dropped while serving (deadlines drained + policy drops)
}

// Stream drives a Decider one request at a time with no lookahead,
// executing its actions against a copy ledger and accumulating the
// resulting model.Schedule. It is the replay driver behind the online
// Runner adapters and the live driver behind datacache.Session.
// Its per-server ledger (see holding) is the stream's one cost
// computation, read by Cost and CostBreakdown.
type Stream struct {
	d  Decider
	st State

	srv      []holding // per server, indexed 1..M
	nAlive   int
	timers   timerHeap
	sched    model.Schedule
	last     float64 // time of the last served request
	served   int
	hits     int
	drops    int // lifetime ActDrop count, for per-decision attribution
	finished bool
	obs      obs.Observer // nil (the default) costs one branch per event site
}

// NewStream validates the state, installs the origin copy and initializes
// the decider.
func NewStream(d Decider, st State) (*Stream, error) {
	if st.M < 1 {
		return nil, fmt.Errorf("engine: need at least one server, got m=%d", st.M)
	}
	if st.Origin < 1 || int(st.Origin) > st.M {
		return nil, fmt.Errorf("engine: origin %d outside 1..%d", st.Origin, st.M)
	}
	s := &Stream{d: d, st: st, srv: make([]holding, st.M+1)}
	s.srv[st.Origin] = holding{live: true, open: true}
	s.nAlive = 1
	if err := s.apply(d.Init(st)); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset returns the stream to the state NewStream leaves it in: the
// origin copy only, zero counters, the timer heap and the schedule
// emptied, and the decider re-Inited with its opening actions applied.
// It keeps the storage the stream has grown and the attached observer.
// A schedule returned earlier by Finish shares that storage and is no
// longer valid.
func (s *Stream) Reset() error {
	clear(s.srv)
	s.srv[s.st.Origin] = holding{live: true, open: true}
	s.nAlive = 1
	s.timers = s.timers[:0]
	s.sched.Caches = s.sched.Caches[:0]
	s.sched.Transfers = s.sched.Transfers[:0]
	s.last, s.served, s.hits, s.drops = 0, 0, 0, 0
	s.finished = false
	return s.apply(s.d.Init(s.st))
}

// SetObserver attaches (or, with nil, detaches) a decision-event observer.
// Every subsequent request, hit, transfer, drop and non-stale timer fire
// is reported as a typed obs.Event in execution order. Observation is
// passive — it never changes decisions — and a nil observer keeps the
// hot path branch-only (see BenchmarkEngineDecision vs the Traced
// variant). Not safe to call concurrently with Serve.
func (s *Stream) SetObserver(o obs.Observer) { s.obs = o }

// Serve feeds the next request to the decider and executes its decisions.
// Request times must be strictly increasing and positive.
func (s *Stream) Serve(server model.ServerID, t float64) (Decision, error) {
	if s.finished {
		return Decision{}, fmt.Errorf("engine: stream already finished")
	}
	if server < 1 || int(server) > s.st.M {
		return Decision{}, fmt.Errorf("engine: server %d outside 1..%d", server, s.st.M)
	}
	if t <= 0 || t <= s.last {
		return Decision{}, fmt.Errorf("engine: request time %v not after %v", t, s.last)
	}
	dropsBefore := s.drops
	// Deliver every deadline strictly before the arrival; a copy whose
	// deadline equals t still serves the request (Section V's semantics).
	if err := s.drainTimers(t, false); err != nil {
		return Decision{}, err
	}
	dec := Decision{Server: server, Time: t, Hit: s.srv[server].live}
	if s.obs != nil {
		s.obs.Observe(obs.Event{At: t, Kind: obs.KindRequest, Server: int(server)})
		if dec.Hit {
			s.obs.Observe(obs.Event{At: t, Kind: obs.KindHit, Server: int(server)})
		}
	}
	acts, err := s.d.OnRequest(server, t)
	if err != nil {
		return Decision{}, err
	}
	for _, a := range acts {
		if a.Kind == ActTransfer && a.Server == server {
			dec.From = a.From
		}
	}
	if err := s.apply(acts); err != nil {
		return Decision{}, err
	}
	if !s.srv[server].live {
		return Decision{}, fmt.Errorf("engine: %s left request at (s%d, t=%v) unserved", s.d.Name(), server, t)
	}
	s.last = t
	s.served++
	if dec.Hit {
		s.hits++
	}
	dec.Drops = s.drops - dropsBefore
	return dec, nil
}

// Finish delivers the remaining deadlines through end (inclusive), closes
// surviving copies at the horizon and returns the normalized schedule. The
// stream accepts no further requests afterwards.
func (s *Stream) Finish(end float64) (*model.Schedule, error) {
	if s.finished {
		return nil, fmt.Errorf("engine: stream already finished")
	}
	if end < s.last {
		return nil, fmt.Errorf("engine: horizon %v before last request %v", end, s.last)
	}
	if err := s.drainTimers(end, true); err != nil {
		return nil, err
	}
	for j := model.ServerID(1); int(j) <= s.st.M; j++ {
		if h := &s.srv[j]; h.live {
			s.sched.AddCache(j, h.created, end)
			h.close(end)
		}
	}
	s.sched.Normalize()
	s.finished = true
	return &s.sched, nil
}

// Snapshot returns the schedule as if the horizon ended at the last served
// request: live copies are truncated there. After Finish it returns the
// final schedule. The returned schedule is a copy; mutating it does not
// affect the stream.
func (s *Stream) Snapshot() *model.Schedule {
	snap := &model.Schedule{
		Caches:    append([]model.CacheInterval(nil), s.sched.Caches...),
		Transfers: append([]model.Transfer(nil), s.sched.Transfers...),
	}
	if !s.finished {
		for j := model.ServerID(1); int(j) <= s.st.M; j++ {
			if h := &s.srv[j]; h.live {
				snap.AddCache(j, h.created, s.last)
			}
		}
		snap.Normalize()
	}
	return snap
}

// Cost prices the stream's accumulated cost under cm: live copies are
// truncated at the last served request while the stream is open, and
// closed at the Finish horizon afterwards. It reads the per-server ledger
// in O(M) and allocates nothing, yet equals Snapshot().Cost(cm) bit for
// bit — and so matches online.Run's accounting exactly — because the
// ledger folds held time in the order model.Schedule.Cost sums a
// normalized schedule in.
func (s *Stream) Cost(cm model.CostModel) float64 {
	held, xfers := 0.0, 0
	for j := 1; j <= s.st.M; j++ {
		held += s.heldOn(j)
		xfers += s.srv[j].xferIn
	}
	return cm.Price(held, xfers)
}

// CostLive returns Cost(cm); the benchmark module's traced run calls it
// by this name.
func (s *Stream) CostLive(cm model.CostModel) float64 { return s.Cost(cm) }

// ServerCost attributes one server's share of a stream's cost: the
// caching cost of the copy-holding intervals on that server, and the
// transfer cost of the copies it received (λ is charged to the transfer
// target — the server whose miss caused the copy to move).
type ServerCost struct {
	Server    model.ServerID `json:"server"`
	Live      bool           `json:"live"`      // currently holds a copy
	Caching   float64        `json:"caching"`   // μ · time this server held a copy
	Transfers int            `json:"transfers"` // copies transferred to this server
	Transfer  float64        `json:"transfer"`  // λ · Transfers
}

// Cost returns the server's total share, Caching + Transfer.
func (c ServerCost) Cost() float64 { return c.Caching + c.Transfer }

// CostBreakdown attributes the stream's accumulated cost per server under
// cm, one entry per server 1..M, read from the same ledger as Cost and at
// the same horizon. Each entry prices its server on its own, so the
// entries sum to Cost up to floating-point accumulation order (exactly on
// dyadic workloads).
func (s *Stream) CostBreakdown(cm model.CostModel) []ServerCost {
	out := make([]ServerCost, 0, s.st.M)
	for j := 1; j <= s.st.M; j++ {
		h := &s.srv[j]
		out = append(out, ServerCost{
			Server:    model.ServerID(j),
			Live:      h.live,
			Caching:   cm.Mu * s.heldOn(j),
			Transfers: h.xferIn,
			Transfer:  cm.Lambda * float64(h.xferIn),
		})
	}
	return out
}

// holding is one server's entry in the stream's cost ledger. The server's
// held time is the sum of its merged intervals — maximal stretches in
// which Normalize would join its copies — in time order. All but the
// latest are folded into held; the latest stays open as [from, to] (to
// running on to the horizon while the copy is live), because a copy
// transferred in within model.Merges of its end joins it rather than
// starting a new interval.
type holding struct {
	live    bool    // holds a copy now
	open    bool    // [from, to] is the latest merged interval, not yet folded
	created float64 // transfer time of the live copy, for the schedule
	from    float64 // start of the open interval
	to      float64 // end of the open interval once closed
	held    float64 // the earlier merged intervals' lengths, summed in order
	xferIn  int     // transfers received
}

// arrive records a copy transferred in at t: it reopens the latest
// interval when Normalize would merge the two, and otherwise folds that
// interval into held and opens a new one.
func (h *holding) arrive(t float64) {
	if !h.open || !model.Merges(h.to, t) {
		if h.open {
			h.held += h.to - h.from
		}
		h.open, h.from, h.to = true, t, t
	}
	h.live, h.created = true, t
	h.xferIn++
}

// close ends the open interval at t, keeping the later end as Normalize
// does when it merges.
func (h *holding) close(t float64) {
	if t > h.to {
		h.to = t
	}
}

// heldOn returns how long server j has held copies through the stream's
// horizon: its folded intervals plus the open one, a live copy counting up
// to the last served request while the stream is open.
func (s *Stream) heldOn(j int) float64 {
	h := &s.srv[j]
	if !h.open {
		return h.held
	}
	to := h.to
	if h.live && !s.finished {
		to = s.last
	}
	return h.held + (to - h.from)
}

// N returns the number of requests served.
func (s *Stream) N() int { return s.served }

// Drops returns how many copies the decider has dropped over the stream's
// lifetime (deadline expiries and policy drops alike).
func (s *Stream) Drops() int { return s.drops }

// Hits returns how many served requests were cache hits.
func (s *Stream) Hits() int { return s.hits }

// Transfers returns how many transfers the decider has made.
func (s *Stream) Transfers() int { return len(s.sched.Transfers) }

// Now returns the time of the last served request (0 before the first).
func (s *Stream) Now() float64 { return s.last }

// Live returns the number of currently live copies.
func (s *Stream) Live() int { return s.nAlive }

// drainTimers fires armed timers up to limit; exclusive at the limit unless
// inclusive is set. A firing may arm new timers at or before the limit
// (group survivors are refreshed at their expiry), so the loop re-examines
// the heap head every round.
func (s *Stream) drainTimers(limit float64, inclusive bool) error {
	for len(s.timers) > 0 {
		at := s.timers[0].at
		if at > limit || (!inclusive && at == limit) {
			return nil
		}
		ev := s.timers.pop()
		acts := s.d.OnTimer(at)
		// Deciders return nil — not an empty slice — for stale timers
		// superseded by a refresh, so acts != nil means the deadline was
		// live (even when it produced no actions, e.g. a lone copy being
		// pinned). Only live fires are reported.
		if s.obs != nil && acts != nil {
			s.obs.Observe(obs.Event{At: at, Kind: obs.KindTimer, Server: int(ev.server)})
		}
		if err := s.apply(acts); err != nil {
			return err
		}
	}
	return nil
}

// apply executes a decider's actions against the copy ledger, recording
// transfers and closed cache intervals in the schedule.
func (s *Stream) apply(acts []Action) error {
	for _, a := range acts {
		switch a.Kind {
		case ActTransfer:
			if !s.srv[a.From].live {
				return fmt.Errorf("engine: transfer at t=%v from server %d which holds no copy", a.Time, a.From)
			}
			if s.srv[a.Server].live {
				return fmt.Errorf("engine: transfer at t=%v to server %d which already holds a copy", a.Time, a.Server)
			}
			s.sched.AddTransfer(a.From, a.Server, a.Time)
			s.srv[a.Server].arrive(a.Time)
			s.nAlive++
			if s.obs != nil {
				s.obs.Observe(obs.Event{At: a.Time, Kind: obs.KindTransfer, Server: int(a.Server), From: int(a.From)})
			}
		case ActDrop:
			h := &s.srv[a.Server]
			if !h.live {
				return fmt.Errorf("engine: drop at t=%v on server %d which holds no copy", a.Time, a.Server)
			}
			if s.nAlive == 1 {
				return fmt.Errorf("engine: drop at t=%v would delete the last copy (server %d)", a.Time, a.Server)
			}
			s.sched.AddCache(a.Server, h.created, a.Time)
			h.close(a.Time)
			h.live = false
			s.nAlive--
			s.drops++
			if s.obs != nil {
				s.obs.Observe(obs.Event{At: a.Time, Kind: obs.KindDrop, Server: int(a.Server)})
			}
		case ActArmTimer:
			s.timers.push(timerEvent{at: a.Time, server: a.Server})
		default:
			return fmt.Errorf("engine: unknown action kind %d", a.Kind)
		}
	}
	return nil
}

// Replay runs a complete sequence through a decider and truncates at the
// horizon t_n — the batch shape the online Runner adapters expose. The
// sequence is assumed valid (adapters validate before calling).
func Replay(d Decider, seq *model.Sequence, cm model.CostModel) (*model.Schedule, error) {
	s, err := NewStream(d, State{M: seq.M, Origin: seq.Origin, Model: cm})
	if err != nil {
		return nil, err
	}
	for i := range seq.Requests {
		r := seq.Requests[i]
		if _, err := s.Serve(r.Server, r.Time); err != nil {
			return nil, err
		}
	}
	return s.Finish(seq.End())
}

// timerEvent is a lazy min-heap entry; deciders skip entries superseded by
// a later refresh.
type timerEvent struct {
	at     float64
	server model.ServerID
}

// timerHeap is a binary min-heap on deadlines. push and pop mirror
// container/heap's Push and Pop step for step, so equal deadlines pop in
// the order they always have, without boxing each entry in an interface.
type timerHeap []timerEvent

func (h *timerHeap) push(ev timerEvent) {
	*h = append(*h, ev)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].at < q[i].at) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *timerHeap) pop() timerEvent {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].at < q[j1].at {
			j = j2 // right child
		}
		if !(q[j].at < q[i].at) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}
