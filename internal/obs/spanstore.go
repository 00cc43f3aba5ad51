package obs

import "time"

// The span store keeps the most recent cap kept spans as records, one per
// flushed trace, in flush order. A record holds a copy of the spans one
// root End kept (flush makes it before it takes the tracer lock, and a
// copy is one object to the garbage collector where the spans are one
// each), the trace id, and the trace's summary as Traces would
// fold the record alone: its owner, the first non-empty span session,
// which is the session Traces files the trace under; its regret summed in
// span order from zero; and its first span's start and duration. A count
// of the stored records per trace id tells when a caller reused its
// traceparent, so that Traces merges records.
//
// No stored span is written: eviction reslices a record's spans and
// DropSession gives the record new ones. So Traces and TraceSpans copy
// the records' span lists under the tracer lock and read the spans after
// releasing it.
type spanStore struct {
	cap     int
	n       int // stored spans
	records fifo[record]
	traces  map[string]int // stored records per trace id
}

// record is one flushed trace's stored spans and their summary.
type record struct {
	spans    []Span
	trace    string
	owner    string // first non-empty span session ("" for none)
	mixed    bool   // a span has another non-empty session
	regret   float64
	start    time.Time
	duration float64
}

// fold summarizes the record's spans as Traces does one trace.
func (r *record) fold() {
	r.owner, r.mixed, r.regret = "", false, 0
	r.start, r.duration = r.spans[0].Start, r.spans[0].Duration
	for i := range r.spans {
		sp := &r.spans[i]
		r.regret += sp.Regret
		if r.owner == "" {
			r.owner = sp.Session
		} else if sp.Session != "" && sp.Session != r.owner {
			r.mixed = true
		}
	}
}

// listed reports whether TraceQuery{Limit: 1}, whose duration and regret
// floors are zero, admits the record's summary.
func (r *record) listed() bool { return !(r.regret < 0) && !(r.duration < 0) }

func newSpanStore(cap int) spanStore {
	return spanStore{cap: cap, records: fifo[record]{limit: cap}, traces: map[string]int{}}
}

// addTrace stores the copied spans of one flushed trace, evicting the
// oldest past the cap. A trace longer than the cap keeps its last cap
// spans.
func (st *spanStore) addTrace(spans []Span) {
	if len(spans) > st.cap {
		spans = spans[len(spans)-st.cap:]
	}
	st.evict(st.n + len(spans) - st.cap)
	r := st.records.extend()
	*r = record{spans: spans, trace: spans[0].TraceID}
	r.fold()
	st.n += len(spans)
	st.traces[r.trace]++
}

// evict drops the n oldest spans: whole records from the front, and the
// head of the record that keeps the rest.
func (st *spanStore) evict(n int) {
	for n > 0 {
		r := st.records.front()
		if len(r.spans) > n {
			r.spans = r.spans[n:]
			r.fold()
			st.n -= n
			return
		}
		n -= len(r.spans)
		st.remove(r)
		st.records.popFront()
	}
}

// remove uncounts a record that leaves the store.
func (st *spanStore) remove(r *record) {
	st.n -= len(r.spans)
	if st.traces[r.trace]--; st.traces[r.trace] == 0 {
		delete(st.traces, r.trace)
	}
}

// dropSession removes every span of the session, keeping the records'
// order. It reads the spans only of records the session may have spans
// in, and a record that keeps some of them gets a new slice.
func (st *spanStore) dropSession(session string) {
	kept := 0
	for i := 0; i < st.records.n; i++ {
		r := st.records.at(i)
		if session == "" || r.owner == session || r.mixed {
			left := 0
			for j := range r.spans {
				if r.spans[j].Session != session {
					left++
				}
			}
			switch {
			case left == 0:
				st.remove(r)
				continue
			case left < len(r.spans):
				spans := make([]Span, 0, left)
				for j := range r.spans {
					if r.spans[j].Session != session {
						spans = append(spans, r.spans[j])
					}
				}
				st.n -= len(r.spans) - left
				r.spans = spans
				r.fold()
			}
		}
		if kept != i {
			*st.records.at(kept) = *r
		}
		kept++
	}
	st.records.truncate(kept)
}

// exemplar scans the records the session owns (every record for "") for
// the first that TraceQuery{Session: session, Limit: 1} lists, the
// earliest winning a tie. It reports false when a scanned record's trace
// id is shared: Traces merges that trace, and only it can answer.
func (st *spanStore) exemplar(session string) (string, bool) {
	var best *record
	for i := 0; i < st.records.n; i++ {
		r := st.records.at(i)
		if session != "" && r.owner != session {
			continue
		}
		if st.traces[r.trace] > 1 {
			return "", false
		}
		if r.listed() && (best == nil || ranksBefore(r.regret, r.start, best.regret, best.start)) {
			best = r
		}
	}
	if best == nil {
		return "", true
	}
	return best.trace, true
}

// spanLists copies the records' span lists, oldest first; with id set,
// only those of that trace.
func (st *spanStore) spanLists(id string) [][]Span {
	var out [][]Span
	if id == "" {
		out = make([][]Span, 0, st.records.n)
	} else if st.traces[id] == 0 {
		return nil
	}
	for i := 0; i < st.records.n; i++ {
		if r := st.records.at(i); id == "" || r.trace == id {
			out = append(out, r.spans)
		}
	}
	return out
}

// summarize folds span lists into one summary per trace id, in the order
// each id first appears; records that share an id merge.
func summarize(lists [][]Span) (map[string]*TraceSummary, []string) {
	byTrace := make(map[string]*TraceSummary, len(lists))
	order := make([]string, 0, len(lists))
	for _, spans := range lists {
		sum, ok := byTrace[spans[0].TraceID]
		if !ok {
			// A record's first span is the oldest of its trace's stored
			// spans: the local root unless eviction or a close took it.
			sp := &spans[0]
			sum = &TraceSummary{TraceID: sp.TraceID, Name: sp.Name, Start: sp.Start, Duration: sp.Duration}
			byTrace[sp.TraceID] = sum
			order = append(order, sp.TraceID)
		}
		for i := range spans {
			sp := &spans[i]
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
		}
	}
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

// fifo is a queue on a ring buffer: extend at the back, pop at the front,
// index from the front. Its buffer doubles when full, up to limit
// elements (0: no limit); a caller that bounds the queue pops before it
// extends past the limit. popFront and truncate zero what they drop, so
// a dropped record pins none of its spans.
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
	return q.at(q.n - 1)
}

// popFront drops the oldest element.
func (q *fifo[T]) popFront() {
	var zero T
	*q.front() = zero
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// truncate keeps the first n elements.
func (q *fifo[T]) truncate(n int) {
	var zero T
	for i := n; i < q.n; i++ {
		*q.at(i) = zero
	}
	q.n = n
}
