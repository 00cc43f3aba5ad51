// Package cloudsim is a discrete-event simulator of the paper's setting: a
// fully connected cluster of cache servers holding copies of one shared data
// item, serving a stream of timed requests under the homogeneous cost model.
// Policies plug in through a reactive interface — they observe request
// arrivals and their own timers, and act through the environment (transfer,
// drop, set timers). The simulator enforces the problem invariants (a copy
// can only be transferred from a live holder; the last copy cannot be
// dropped), accounts costs continuously, and records the resulting schedule
// so that results are directly comparable with the closed-form
// implementations in internal/online — the integration tests assert
// cost-for-cost equality for SC.
package cloudsim

import (
	"container/heap"
	"fmt"
	"math"

	"datacache/internal/model"
)

// Policy reacts to simulation events. Implementations must be deterministic
// functions of the observed history: the simulator replays events in strict
// time order, delivering requests before timers at equal instants — a
// speculative deadline that coincides with an arrival still serves the
// request, matching the expiry semantics of Section V.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Init is called once before the first event with the environment.
	Init(env *Env)
	// OnRequest must ensure the item is present on server (via env.Transfer
	// if needed); the simulator verifies presence afterwards.
	OnRequest(env *Env, server model.ServerID, now float64)
	// OnTimer delivers a timer the policy armed with env.SetTimer.
	OnTimer(env *Env, server model.ServerID, now float64)
}

// Env is the policy's handle on the simulated cluster.
type Env struct {
	sim *Simulator
}

// M returns the cluster size.
func (e *Env) M() int { return e.sim.seq.M }

// Model returns the cost model.
func (e *Env) Model() model.CostModel { return e.sim.cm }

// Now returns the current simulation time.
func (e *Env) Now() float64 { return e.sim.now }

// Copies returns the servers currently holding copies, in id order.
func (e *Env) Copies() []model.ServerID {
	var out []model.ServerID
	for j := model.ServerID(1); int(j) <= e.sim.seq.M; j++ {
		if e.sim.holds[j] {
			out = append(out, j)
		}
	}
	return out
}

// Transfer copies the item from a live holder to another server at cost λ.
func (e *Env) Transfer(from, to model.ServerID) error {
	s := e.sim
	if from == to {
		return fmt.Errorf("cloudsim: transfer to self on server %d", from)
	}
	if !s.holds[from] {
		return fmt.Errorf("cloudsim: transfer from server %d which holds no copy", from)
	}
	if s.holds[to] {
		return fmt.Errorf("cloudsim: transfer to server %d which already holds a copy", to)
	}
	s.holds[to] = true
	s.nHolds++
	s.createdAt[to] = s.now
	s.sched.AddTransfer(from, to, s.now)
	s.transfers++
	return nil
}

// Drop deletes a live copy. Dropping the last copy is rejected: the problem
// requires at least one live copy at all times.
func (e *Env) Drop(server model.ServerID) error {
	s := e.sim
	if !s.holds[server] {
		return fmt.Errorf("cloudsim: drop on server %d which holds no copy", server)
	}
	if s.nHolds == 1 {
		return fmt.Errorf("cloudsim: cannot drop the last copy (server %d)", server)
	}
	s.holds[server] = false
	s.nHolds--
	s.sched.AddCache(server, s.createdAt[server], s.now)
	return nil
}

// SetTimer arms a policy timer on a server. Timers at or before the current
// time fire immediately after the current event. Re-arming replaces nothing:
// every armed timer fires; policies must tolerate stale timers.
func (e *Env) SetTimer(server model.ServerID, at float64) {
	heap.Push(&e.sim.queue, event{at: at, kind: evTimer, server: server, seq: e.sim.nextSeq()})
}

// Fail aborts the simulation with a policy-level error.
func (e *Env) Fail(err error) { e.sim.failure = err }

// Simulator drives one run.
type Simulator struct {
	seq *model.Sequence
	cm  model.CostModel

	now       float64
	holds     []bool
	createdAt []float64
	nHolds    int
	transfers int
	queue     eventQueue
	seqCtr    int
	sched     model.Schedule
	failure   error
}

type evKind int8

const (
	evRequest evKind = iota // requests sort before timers at equal times
	evTimer
)

type event struct {
	at     float64
	kind   evKind
	server model.ServerID
	seq    int // FIFO tie-break for determinism
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].kind != q[j].kind {
		return q[i].kind < q[j].kind
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

func (s *Simulator) nextSeq() int { s.seqCtr++; return s.seqCtr }

// Report is the outcome of a simulation run.
type Report struct {
	Policy    string
	Schedule  *model.Schedule
	Cost      float64
	Transfers int
	Events    int
}

// Run simulates the policy over the sequence and prices the resulting
// schedule; the schedule is validated for feasibility before returning.
func Run(p Policy, seq *model.Sequence, cm model.CostModel) (*Report, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		seq:       seq,
		cm:        cm,
		holds:     make([]bool, seq.M+1),
		createdAt: make([]float64, seq.M+1),
	}
	s.holds[seq.Origin] = true
	s.nHolds = 1
	env := &Env{sim: s}
	for i, r := range seq.Requests {
		heap.Push(&s.queue, event{at: r.Time, kind: evRequest, server: r.Server, seq: -len(seq.Requests) + i})
	}
	p.Init(env)
	events := 0
	end := seq.End()
	for s.queue.Len() > 0 && s.failure == nil {
		ev := heap.Pop(&s.queue).(event)
		if ev.at > end {
			break // timers beyond the horizon are irrelevant
		}
		if ev.at < s.now {
			return nil, fmt.Errorf("cloudsim: event at %v before current time %v", ev.at, s.now)
		}
		s.now = ev.at
		events++
		switch ev.kind {
		case evTimer:
			p.OnTimer(env, ev.server, s.now)
		case evRequest:
			p.OnRequest(env, ev.server, s.now)
			if s.failure == nil && !s.holds[ev.server] && !justDelivered(&s.sched, ev.server, s.now) {
				return nil, fmt.Errorf("cloudsim: %s left request at (s%d, t=%v) unserved", p.Name(), ev.server, s.now)
			}
		}
	}
	if s.failure != nil {
		return nil, fmt.Errorf("cloudsim: %s: %w", p.Name(), s.failure)
	}
	// Close out surviving copies at the horizon.
	for j := model.ServerID(1); int(j) <= seq.M; j++ {
		if s.holds[j] {
			s.sched.AddCache(j, s.createdAt[j], math.Max(s.createdAt[j], end))
		}
	}
	s.sched.Normalize()
	if err := s.sched.Validate(seq); err != nil {
		return nil, fmt.Errorf("cloudsim: %s produced an infeasible schedule: %w", p.Name(), err)
	}
	return &Report{
		Policy:    p.Name(),
		Schedule:  &s.sched,
		Cost:      s.sched.Cost(cm),
		Transfers: s.transfers,
		Events:    events,
	}, nil
}

// justDelivered reports whether a transfer landed on the server at this very
// instant (a policy may deliver and let its timer logic drop immediately).
func justDelivered(s *model.Schedule, server model.ServerID, now float64) bool {
	for i := len(s.Transfers) - 1; i >= 0; i-- {
		tr := s.Transfers[i]
		if tr.Time != now {
			return false
		}
		if tr.To == server {
			return true
		}
	}
	return false
}
