package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"datacache"
	"datacache/internal/obs"
)

// The four serve routes, single and batch on sessions and pools, run one
// skeleton: a route decodes its body, calls beginServe, makes its one
// datacache call and hands the result to endServe. The route makes the
// call itself and passes the result by value because a call handed to
// the skeleton as a func value moves the decoded request and the
// decision to the heap.

// maxEventBuffer bounds, in events, the decision-event buffer a session
// entry keeps between serves: 64 KiB of obs.Event, maxPooledBuffer's
// bound. A larger buffer is dropped once its labels are built, so an
// entry's memory does not depend on the largest batch it has served.
const maxEventBuffer = 2048

// serveOp is one serve operation on a session or a pool entry; exactly
// one of sess and pool is set.
type serveOp struct {
	id    string
	sess  *sessionEntry
	pool  *poolEntry
	root  *obs.Span
	start time.Time
}

// served is what a route's datacache call returned: a single request's
// decision (a session's in one.Decision) or a batch's result, and the
// call's error. A batch result is never nil: ServeBatch returns none only
// for a closed entry, which beginServe refuses.
type served struct {
	one       datacache.PoolDecision
	batch     *datacache.ServeBatchResult
	poolBatch *datacache.PoolBatchResult
	reqs      int // the batch's request count
	err       error
}

// entry returns the kind, lock and inflight counter of op's entry.
func (op *serveOp) entry() (kind string, lk entryLock, inflight *atomic.Int64) {
	if op.sess != nil {
		return "session", op.sess.lk, &op.sess.inflight
	}
	return "pool", op.pool.lk, &op.pool.inflight
}

// beginServe opens op: it admits op against its entry's inflight budget
// (429), takes the entry lock (499), refuses a closed entry (409), tags
// the root span and the recorder's trace id with the entry's id and
// starts the clock. On false it has answered with the error envelope and
// holds nothing; on true the caller holds op's inflight slot and entry
// lock, and must pass its datacache call's result to endServe.
func (s *Server) beginServe(w http.ResponseWriter, r *http.Request, op *serveOp) bool {
	kind, lk, inflight := op.entry()
	if inflight.Add(1) > s.inflight {
		inflight.Add(-1)
		s.batchShed.Inc()
		w.Header().Set("Retry-After", "1")
		s.httpError(w, r, http.StatusTooManyRequests,
			fmt.Errorf("%s %q has %d serve operations inflight (budget %d)", kind, op.id, s.inflight, s.inflight))
		return false
	}
	if !s.lockEntry(w, r, kind, lk) {
		inflight.Add(-1)
		return false
	}
	if op.sess != nil && op.sess.sess.Closed() || op.pool != nil && op.pool.pool.Closed() {
		lk.unlock()
		inflight.Add(-1)
		s.httpError(w, r, http.StatusConflict, fmt.Errorf("%s %q is closed", kind, op.id))
		return false
	}
	op.root = obs.SpanFrom(r.Context())
	if op.root != nil {
		op.root.Session = op.id
		if op.sess != nil {
			op.sess.sess.SetRecordTraceID(op.root.TraceID)
		} else {
			op.pool.pool.SetRecordTraceID(op.root.TraceID)
		}
	}
	if op.sess != nil {
		op.sess.evs, op.sess.reqs = op.sess.evs[:0], 0
	}
	op.start = time.Now()
	return true
}

// endServe closes op with its datacache call's result: it stops the
// clock, reads N and the decisions' event labels under the lock and
// unlocks, answers a rejected single request 400 and a canceled batch
// 499, observes the batch-size and decision-latency histograms, opens one
// serve child span per applied decision (none past the tracer's bound per
// trace) and sends the reply.
func (s *Server) endServe(w http.ResponseWriter, r *http.Request, op *serveOp, res served) {
	elapsed := time.Since(op.start)
	_, lk, inflight := op.entry()
	defer inflight.Add(-1)
	applied := res.applied()
	var n int
	var events string
	if op.sess != nil {
		n = op.sess.sess.N()
		if op.root != nil && applied > 0 {
			events = eventRuns(op.sess.evs, &res)
		}
		if cap(op.sess.evs) > maxEventBuffer {
			op.sess.evs = nil
		}
	} else {
		n = op.pool.pool.N()
	}
	lk.unlock()
	batch := res.batch != nil || res.poolBatch != nil
	if res.err != nil {
		if batch {
			// ServeBatch fails outright only on a closed entry, which
			// beginServe refuses, or a context canceled mid-batch; the
			// applied requests stay applied.
			s.httpError(w, r, StatusClientClosedRequest,
				fmt.Errorf("batch aborted after %d of %d requests: %v", applied, res.reqs, res.err))
			return
		}
		op.span(nil, "", elapsed.Seconds())
		s.httpError(w, r, http.StatusBadRequest, res.err)
		return
	}
	if batch {
		s.batchSize.Observe(float64(res.reqs))
	}
	if applied > 0 {
		// One sample of the mean per-decision latency: a batch's requests
		// are not timed one by one.
		perDecision := elapsed.Seconds() / float64(applied)
		if op.root.Sampled() {
			s.decisionSec.ObserveExemplar(perDecision, op.root.TraceID)
		} else {
			s.decisionSec.Observe(perDecision)
		}
		for i := 0; i < applied; i++ {
			var label string
			label, events, _ = strings.Cut(events, ";")
			if !op.span(res.decision(i), label, perDecision) {
				break
			}
		}
	}
	buf := getBuffer()
	var err error
	switch {
	case res.batch != nil:
		buf.b, err = appendSessionBatch(buf.b, op.id, n, res.batch)
	case res.poolBatch != nil:
		buf.b, err = appendPoolBatch(buf.b, op.id, n, res.poolBatch)
	case op.pool != nil:
		buf.b, err = appendPoolDecision(buf.b, op.id, &res.one)
	default:
		buf.b, err = appendSessionDecision(buf.b, op.id, n, &res.one.Decision)
	}
	s.sendReply(w, r, http.StatusOK, buf, err)
}

// applied counts the decisions res holds.
func (res *served) applied() int {
	switch {
	case res.batch != nil:
		return len(res.batch.Decisions)
	case res.poolBatch != nil:
		return len(res.poolBatch.Decisions)
	case res.err != nil:
		return 0
	}
	return 1
}

// decision returns res's i-th applied decision.
func (res *served) decision(i int) *datacache.Decision {
	switch {
	case res.batch != nil:
		return &res.batch.Decisions[i]
	case res.poolBatch != nil:
		return &res.poolBatch.Decisions[i].Decision
	}
	return &res.one.Decision
}

// eventRuns labels res's applied decisions with the engine events they
// caused, in one string: each decision's event kinds comma-joined, e.g.
// "drop,request,hit", and the decisions' labels joined by ';'. Events
// arrive in serve order, and a decision's run is the deadline expiries
// drained on its arrival, its own request and hit or transfer, and any
// policy actions at its instant: so once a run holds its request, a
// request event or an event past the decision's time opens the next run.
func eventRuns(evs []obs.Event, res *served) string {
	applied, n := res.applied(), 0
	for _, ev := range evs {
		n += len(ev.Kind.String()) + 1
	}
	var b strings.Builder
	b.Grow(n)
	j, seenReq := 0, false
	for i, ev := range evs {
		if seenReq && j+1 < applied && (ev.Kind == obs.KindRequest || ev.At > res.decision(j).Time) {
			j++
			seenReq = false
			b.WriteByte(';')
		} else if i > 0 {
			b.WriteByte(',')
		}
		seenReq = seenReq || ev.Kind == obs.KindRequest
		b.WriteString(ev.Kind.String())
	}
	return b.String()
}

// span opens one serve child span below op's root, after the entry is
// unlocked: it starts at the timed call's start and lasts dur, the call's
// time per decision. It annotates the span with decision d and its event
// label, or marks it an error when d is nil (a rejected single request).
// It reports false when the trace takes no more spans.
func (op *serveOp) span(d *datacache.Decision, events string, dur float64) bool {
	sp := op.root.StartChild("serve")
	if sp == nil {
		return false
	}
	sp.Start = op.start
	sp.Session = op.id
	if d == nil {
		sp.Error = true
	} else {
		sp.Server = int(d.Server)
		sp.Decision = "transfer"
		if d.Hit {
			sp.Decision = "hit"
		}
		sp.Events = events
		sp.Drops = d.Drops
		sp.Shadows = op.shadowLabel(d.ShadowDiverged)
		sp.Regret = d.Regret
	}
	sp.End()
	sp.Duration = dur
	return true
}

// shadowLabel joins the labels of the shadow policies whose decision
// diverged from the live one (bit i of mask for the entry's shadow i),
// e.g. "migrate,ttl:window=0.5"; empty when every shadow agreed. The
// names are fixed at create, so they are read without the entry lock.
func (op *serveOp) shadowLabel(mask uint64) string {
	if mask == 0 {
		return ""
	}
	var names []string
	if op.sess != nil {
		names = op.sess.sess.ShadowNames()
	} else {
		names = op.pool.pool.ShadowNames()
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
