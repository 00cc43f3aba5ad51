package obs

import (
	"sort"
	"time"
)

// The span store keeps the most recent cap kept spans in a ring, in the
// order their traces were flushed, and beside it an index that answers
// Exemplar, "the session's highest-regret retained trace", without
// summarizing the store.
//
// Each flush stores one group: the spans one root End kept, contiguous in
// the ring. A group records its trace id and its owner, the first
// non-empty session among its spans, which is the session Traces files
// the trace under when no other stored group shares the trace id. The
// index keeps, per owner, the candidate groups in flush order such that
// each ranks no worse than every later one (a sliding-window maximum):
// a new group pops the candidates it ranks before, and the ring, which
// evicts oldest first, pops the front. The front is then what Traces
// ranks first among the session's groups.
//
// Three cases leave that picture, and each is handled where it arises:
//
//   - The ring evicts a group's first spans before the rest. Only the
//     oldest group can be partial; it leaves the index and Exemplar folds
//     its remaining spans when asked.
//   - Groups share a trace id (a caller reused its traceparent), so
//     Traces merges them into one summary. Every such group marks its
//     owner shared, and a shared owner's Exemplar walks the store as
//     Traces does, until the ring has evicted all but one of the groups.
//   - DropSession removes spans from groups that other sessions' spans
//     share, or removes a group whose trace id is shared. It then
//     rebuilds the index from the ring.
type spanStore struct {
	cap      int
	spans    fifo[Span]
	groups   fifo[spanGroup]
	seq      uint64 // the last group's sequence number
	traces   map[string]traceGroups
	sessions map[string]*sessionTop
}

// spanGroup is one flushed trace's stored spans.
type spanGroup struct {
	seq     uint64
	trace   string
	owner   string // first non-empty span session ("" for none)
	n       int    // spans still stored
	evicted bool   // the ring evicted its first spans
	shared  bool   // another stored group has its trace id
}

// traceGroups counts the stored groups of one trace id.
type traceGroups struct {
	groups int
	last   uint64 // sequence number of the newest
}

// candidate is a group as Traces would summarize it alone.
type candidate struct {
	seq      uint64
	trace    string
	regret   float64
	start    time.Time
	duration float64
}

// listed reports whether TraceQuery{Session: s, Limit: 1}, whose duration
// and regret floors are zero, admits the summary.
func (c *candidate) listed() bool { return !(c.regret < 0) && !(c.duration < 0) }

// sessionTop is one owner's index entry.
type sessionTop struct {
	top    fifo[candidate] // flush order; each ranks no worse than the next
	shared int             // stored groups it owns whose trace id is shared
}

func newSpanStore(cap int) spanStore {
	return spanStore{
		cap:      cap,
		spans:    fifo[Span]{limit: cap},
		groups:   fifo[spanGroup]{limit: cap},
		traces:   map[string]traceGroups{},
		sessions: map[string]*sessionTop{},
	}
}

func (st *spanStore) len() int { return st.spans.n }

// each visits retained spans oldest first.
func (st *spanStore) each(fn func(*Span)) {
	for i := 0; i < st.spans.n; i++ {
		fn(st.spans.at(i))
	}
}

// addTrace stores one flushed trace's spans, evicting the oldest past the
// cap. A trace longer than the cap keeps its last cap spans.
func (st *spanStore) addTrace(spans []*Span) {
	evicted := len(spans) > st.cap
	if evicted {
		spans = spans[len(spans)-st.cap:]
	}
	if over := st.spans.n + len(spans) - st.cap; over > 0 {
		st.evict(over)
	}
	for _, sp := range spans {
		*st.spans.extend() = *sp
	}
	st.seq++
	g := st.groups.extend()
	*g = spanGroup{seq: st.seq, trace: spans[0].TraceID, n: len(spans), evicted: evicted}
	c := st.fold(st.spans.n-len(spans), g)
	st.countTrace(g)
	if !g.evicted {
		st.list(g, c)
	}
}

// fold summarizes the g.n spans from ring position from as Traces does
// one trace: the first span's start and duration, the regret summed in
// order from zero. It sets g's owner to the first non-empty session.
func (st *spanStore) fold(from int, g *spanGroup) candidate {
	first := st.spans.at(from)
	c := candidate{seq: g.seq, trace: g.trace, start: first.Start, duration: first.Duration}
	g.owner = ""
	for i := from; i < from+g.n; i++ {
		sp := st.spans.at(i)
		c.regret += sp.Regret
		if g.owner == "" {
			g.owner = sp.Session
		}
	}
	return c
}

// countTrace counts a new group under its trace id and marks the groups
// that share it.
func (st *spanStore) countTrace(g *spanGroup) {
	tg := st.traces[g.trace]
	tg.groups++
	if tg.groups == 2 {
		st.share(st.group(tg.last))
	}
	if tg.groups >= 2 {
		st.share(g)
	}
	tg.last = g.seq
	st.traces[g.trace] = tg
}

func (st *spanStore) share(g *spanGroup) {
	if g.shared {
		return
	}
	g.shared = true
	if g.owner != "" {
		st.entry(g.owner).shared++
	}
}

func (st *spanStore) unshare(g *spanGroup) {
	if !g.shared {
		return
	}
	g.shared = false
	if e := st.sessions[g.owner]; e != nil {
		e.shared--
		st.tidy(g.owner, e)
	}
}

func (st *spanStore) entry(owner string) *sessionTop {
	e := st.sessions[owner]
	if e == nil {
		e = &sessionTop{}
		st.sessions[owner] = e
	}
	return e
}

// tidy deletes an entry that holds nothing.
func (st *spanStore) tidy(owner string, e *sessionTop) {
	if e.top.n == 0 && e.shared == 0 {
		delete(st.sessions, owner)
	}
}

// group finds a stored group by sequence number; groups are stored in
// increasing sequence order.
func (st *spanStore) group(seq uint64) *spanGroup {
	i := sort.Search(st.groups.n, func(i int) bool { return st.groups.at(i).seq >= seq })
	return st.groups.at(i)
}

// list enters a whole group into its owner's candidates.
func (st *spanStore) list(g *spanGroup, c candidate) {
	if g.owner == "" || !c.listed() {
		return
	}
	top := &st.entry(g.owner).top
	for top.n > 0 && ranksBefore(c.regret, c.start, top.back().regret, top.back().start) {
		top.popBack()
	}
	*top.extend() = c
}

// evict drops the n oldest spans, group by group. A group leaves the
// index the first time it loses a span, and its trace's count once it
// has none left.
func (st *spanStore) evict(n int) {
	st.spans.popFront(n)
	for n > 0 {
		g := st.groups.front()
		if !g.evicted {
			g.evicted = true
			if e := st.sessions[g.owner]; e != nil && e.top.n > 0 && e.top.front().seq == g.seq {
				e.top.popFront(1)
				st.tidy(g.owner, e)
			}
		}
		k := min(n, g.n)
		g.n -= k
		n -= k
		if g.n > 0 {
			return
		}
		tg := st.traces[g.trace]
		st.unshare(g)
		if tg.groups--; tg.groups == 0 {
			delete(st.traces, g.trace)
		} else {
			st.traces[g.trace] = tg
			if tg.groups == 1 {
				st.unshare(st.group(tg.last)) // evicted oldest first: the newest is left
			}
		}
		st.groups.popFront(1)
	}
}

// dropSession removes every span of the session, compacting the ring in
// place in ring order, so that a wrapped ring keeps its order.
func (st *spanStore) dropSession(session string) {
	rebuild := false
	read, write, kept := 0, 0, 0
	for gi := 0; gi < st.groups.n; gi++ {
		g := st.groups.at(gi)
		left := 0
		for end := read + g.n; read < end; read++ {
			if sp := st.spans.at(read); sp.Session != session {
				if write != read {
					*st.spans.at(write) = *sp
				}
				write++
				left++
			}
		}
		switch {
		case left == 0:
			// Nothing of the group is left, nor of its trace unless
			// another group shares the trace id.
			if g.shared {
				rebuild = true
			} else {
				delete(st.traces, g.trace)
			}
			continue
		case left < g.n:
			g.n = left
			rebuild = true
		case g.owner == session:
			// The partial oldest group, counted under the session whose
			// spans the ring evicted from it: that entry goes below.
			rebuild = true
		}
		if kept != gi {
			*st.groups.at(kept) = *g
		}
		kept++
	}
	st.spans.truncate(write)
	st.groups.truncate(kept)
	delete(st.sessions, session)
	if rebuild {
		st.reindex()
	}
}

// reindex rebuilds the trace counts and every owner's candidates from the
// stored groups.
func (st *spanStore) reindex() {
	clear(st.traces)
	clear(st.sessions)
	from := 0
	for i := 0; i < st.groups.n; i++ {
		g := st.groups.at(i)
		g.shared = false
		c := st.fold(from, g)
		from += g.n
		tg := st.traces[g.trace]
		tg.groups++
		tg.last = g.seq
		st.traces[g.trace] = tg
		if !g.evicted {
			st.list(g, c)
		}
	}
	for i := 0; i < st.groups.n; i++ {
		if g := st.groups.at(i); st.traces[g.trace].groups > 1 {
			st.share(g)
		}
	}
}

// exemplar is Tracer.Exemplar under the tracer's lock.
func (st *spanStore) exemplar(session string) string {
	e := st.sessions[session]
	if session == "" || e != nil && e.shared > 0 {
		return st.walk(session)
	}
	var best *candidate
	if e != nil && e.top.n > 0 {
		best = e.top.front()
	}
	if st.groups.n > 0 && st.groups.front().evicted {
		// The partial oldest group: summarized from what is left of it.
		g := *st.groups.front()
		c := st.fold(0, &g)
		if g.owner == session {
			if st.traces[g.trace].groups > 1 {
				return st.walk(session)
			}
			// Oldest, so it wins a tie.
			if c.listed() && (best == nil || !ranksBefore(best.regret, best.start, c.regret, c.start)) {
				best = &c
			}
		}
	}
	if best == nil {
		return ""
	}
	return best.trace
}

// walk answers exemplar as Traces does, by summarizing every stored
// trace.
func (st *spanStore) walk(session string) string {
	byTrace, order := st.summaries()
	if ts := rankTraces(byTrace, order, TraceQuery{Session: session, Limit: 1}); len(ts) > 0 {
		return ts[0].TraceID
	}
	return ""
}

// summaries folds the stored spans into one summary per trace id, in the
// order each id first appears.
func (st *spanStore) summaries() (map[string]*TraceSummary, []string) {
	byTrace := map[string]*TraceSummary{}
	var order []string
	st.each(func(sp *Span) {
		sum, ok := byTrace[sp.TraceID]
		if !ok {
			// Groups are stored contiguously with the local root first, so
			// the first span seen per trace carries the root name/duration.
			sum = &TraceSummary{
				TraceID:  sp.TraceID,
				Name:     sp.Name,
				Start:    sp.Start,
				Duration: sp.Duration,
			}
			byTrace[sp.TraceID] = sum
			order = append(order, sp.TraceID)
		}
		sum.Spans++
		sum.Regret += sp.Regret
		sum.Error = sum.Error || sp.Error
		sum.Shed = sum.Shed || sp.Shed
		if sp.Session != "" && sum.Session == "" {
			sum.Session = sp.Session
		}
		if sp.Decision != "" && !containsField(sum.Decision, sp.Decision) {
			if sum.Decision != "" {
				sum.Decision += ","
			}
			sum.Decision += sp.Decision
		}
	})
	return byTrace, order
}

// ranksBefore is Traces' order: the higher summed regret first, a NaN
// regret after every number, and between equal regrets the later start.
func ranksBefore(aRegret float64, aStart time.Time, bRegret float64, bStart time.Time) bool {
	aNaN, bNaN := aRegret != aRegret, bRegret != bRegret
	switch {
	case aNaN != bNaN:
		return bNaN
	case !aNaN && aRegret != bRegret:
		return aRegret > bRegret
	}
	return aStart.After(bStart)
}

// fifo is a queue on a ring buffer: extend at the back, pop at either
// end, index from the front. Its buffer doubles when full, up to limit
// elements (0: no limit); a caller that bounds the queue pops before it
// extends past the limit. A popped slot keeps its value until the next
// extend overwrites it, which for the span ring is at once; truncate
// zeroes what it drops, so a closed session's spans pin nothing.
type fifo[T any] struct {
	buf   []T
	head  int // buffer index of the front element
	n     int
	limit int
}

func (q *fifo[T]) at(i int) *T {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

func (q *fifo[T]) front() *T { return q.at(0) }
func (q *fifo[T]) back() *T  { return q.at(q.n - 1) }

// extend adds a slot at the back and returns it for the caller to fill.
func (q *fifo[T]) extend() *T {
	if q.n == len(q.buf) {
		size := max(8, 2*len(q.buf))
		if q.limit > 0 {
			size = min(size, q.limit)
		}
		buf := make([]T, size)
		for i := 0; i < q.n; i++ {
			buf[i] = *q.at(i)
		}
		q.buf, q.head = buf, 0
	}
	q.n++
	return q.back()
}

// popFront drops the n oldest elements.
func (q *fifo[T]) popFront(n int) {
	if q.head += n; q.head >= len(q.buf) {
		q.head -= len(q.buf)
	}
	q.n -= n
}

func (q *fifo[T]) popBack() { q.n-- }

// truncate keeps the first n elements.
func (q *fifo[T]) truncate(n int) {
	var zero T
	for i := n; i < q.n; i++ {
		*q.at(i) = zero
	}
	q.n = n
}
