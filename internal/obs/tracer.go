package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The tracing layer: a Tracer mints spans whose ids come from an
// injected, seeded math/rand source (never the global generator), applies
// head sampling when a trace starts and always-keep tail rules (error,
// shed, regret at or above a threshold) when it ends, and retains kept
// spans in a bounded in-memory store the /v1/traces endpoints query. An
// optional exporter additionally writes every kept span as one NDJSON
// line, so a trace survives the store's ring bound on disk.
//
// A span is owned by one goroutine from StartRoot/StartChild until End;
// the Tracer's own state (rng, store) is mutex-guarded, so concurrent
// requests can trace freely.

// DefaultSpanCap bounds the in-memory span store unless TracerOptions.Cap
// overrides it.
const DefaultSpanCap = 4096

// MaxSpansPerTrace bounds how many spans, the root included, one trace
// buffers; a batch of tens of thousands of requests keeps its first serve
// spans and mints none past the bound.
const MaxSpansPerTrace = 512

// Span is one timed operation of a trace. Identifier fields hold the
// lowercase-hex renderings so spans marshal directly to JSON/NDJSON.
type Span struct {
	TraceID  string    `json:"traceId"`
	SpanID   string    `json:"spanId"`
	ParentID string    `json:"parentId,omitempty"`
	Name     string    `json:"name"`
	Session  string    `json:"session,omitempty"`  // serving session id
	Route    string    `json:"route,omitempty"`    // HTTP route (server spans)
	Status   int       `json:"status,omitempty"`   // HTTP status (server spans)
	Server   int       `json:"server,omitempty"`   // requested server (serve spans)
	Decision string    `json:"decision,omitempty"` // hit | transfer (serve spans)
	Events   string    `json:"events,omitempty"`   // decision events, comma-joined
	Drops    int       `json:"drops,omitempty"`    // copies dropped during the serve
	Shadows  string    `json:"shadows,omitempty"`  // shadow policies that decided differently, comma-joined
	Regret   float64   `json:"regret"`             // online cost delta - optimum delta
	Error    bool      `json:"error,omitempty"`
	Shed     bool      `json:"shed,omitempty"` // rejected by the inflight budget
	Start    time.Time `json:"start"`
	Duration float64   `json:"durationSeconds"`

	tracer *Tracer
	root   *rootState
	ended  bool
}

// rootState is the per-trace buffer shared by a root span and its local
// children; the whole group is kept or discarded together when the root
// ends. Its inline array holds the common shapes (root alone, root + one
// serve), so that they need no buffer of their own.
type rootState struct {
	sampled bool
	flushed bool
	spans   []*Span
	inline  [2]*Span
}

// rootSpan allocates a root span and its trace's state together.
type rootSpan struct {
	Span
	state rootState
}

// SpanExporter receives every span the tracer decides to keep.
type SpanExporter interface {
	ExportSpan(Span)
}

// TracerOptions configures NewTracer.
type TracerOptions struct {
	// Rand generates trace and span ids. Required: the tracer never
	// touches the global math/rand state, so the caller decides the seed
	// (fixed for tests, time-derived for servers).
	Rand *rand.Rand
	// SampleRate is the head-sampling probability in [0, 1]: the fraction
	// of traces kept regardless of how they turn out. Values >= 1 keep
	// everything; <= 0 keeps only traces a tail rule rescues.
	SampleRate float64
	// RegretThreshold, when positive, is a tail rule: a trace containing a
	// span with Regret >= RegretThreshold is kept even when head sampling
	// passed on it. Zero disables the rule. Error and shed spans are
	// always-keep regardless.
	RegretThreshold float64
	// Cap bounds the in-memory span store (default DefaultSpanCap).
	Cap int
	// Exporter, when set, additionally receives every kept span.
	Exporter SpanExporter
}

// Tracer mints spans and retains the sampled ones. Create it with
// NewTracer; the zero value is not usable.
type Tracer struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rate     float64
	regret   float64
	exporter SpanExporter
	store    spanStore
	now      func() time.Time
}

// NewTracer builds a tracer. opts.Rand is required.
func NewTracer(opts TracerOptions) (*Tracer, error) {
	if opts.Rand == nil {
		return nil, fmt.Errorf("obs: NewTracer requires an injected *rand.Rand (no global rand)")
	}
	cap := opts.Cap
	if cap <= 0 {
		cap = DefaultSpanCap
	}
	return &Tracer{
		rng:      opts.Rand,
		rate:     opts.SampleRate,
		regret:   opts.RegretThreshold,
		exporter: opts.Exporter,
		store:    newSpanStore(cap),
		now:      time.Now,
	}, nil
}

// StartRoot opens the local root span of a trace. A valid parent context
// (from an incoming traceparent header) is adopted: the trace id, the
// parent span id and the caller's sampling verdict carry over. Otherwise
// a fresh trace id is drawn and head sampling rolls the tracer's rate.
func (t *Tracer) StartRoot(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := NewSpanID(t.rng)
	var traceID TraceID
	var sampled bool
	if parent.Valid() {
		traceID = parent.TraceID
		sampled = parent.Sampled
	} else {
		traceID = NewTraceID(t.rng)
		sampled = t.rate >= 1 || (t.rate > 0 && t.rng.Float64() < t.rate)
	}
	t.mu.Unlock()
	rs := &rootSpan{state: rootState{sampled: sampled}}
	rs.Span = Span{
		TraceID: traceID.String(),
		SpanID:  id.String(),
		Name:    name,
		Start:   t.now(),
		tracer:  t,
		root:    &rs.state,
	}
	if parent.Valid() {
		rs.ParentID = parent.SpanID.String()
	}
	rs.state.spans = append(rs.state.inline[:0], &rs.Span)
	return &rs.Span
}

// StartChild opens a child span below s, sharing its trace and buffer.
// It returns nil when the trace already buffers MaxSpansPerTrace spans or
// its root has ended, since End would drop such a child, and on a nil
// span; a caller sets fields only on a non-nil child.
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.root.flushed || len(s.root.spans) >= MaxSpansPerTrace {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	id := NewSpanID(t.rng)
	t.mu.Unlock()
	return &Span{
		TraceID:  s.TraceID,
		SpanID:   id.String(),
		ParentID: s.SpanID,
		Name:     name,
		Start:    t.now(),
		tracer:   t,
		root:     s.root,
	}
}

// Traceparent renders the span's outgoing traceparent header from the
// hex ids the span holds; a nil span renders the all-zero, invalid one.
func (s *Span) Traceparent() string {
	if s == nil {
		return FormatTraceparent(SpanContext{})
	}
	flags := "-00"
	if s.root.sampled {
		flags = "-01"
	}
	return "00-" + s.TraceID + "-" + s.SpanID + flags
}

// Sampled reports the head-sampling verdict of the span's trace.
func (s *Span) Sampled() bool { return s != nil && s.root.sampled }

// End closes the span. Children buffer into their root; ending the root
// decides retention for the whole buffered trace — kept when head-sampled
// in, or when any span trips a tail rule (error, shed, regret at or above
// the tracer's threshold) — and reports the verdict. Ending a child
// always returns false; a nil or double End is a no-op.
func (s *Span) End() bool {
	if s == nil || s.ended {
		return false
	}
	s.ended = true
	s.Duration = s.tracer.now().Sub(s.Start).Seconds()
	if s.root.spans[0] != s {
		// A child: buffer onto the root unless the trace filled up or
		// was flushed after the child started (a straggler is dropped).
		if !s.root.flushed && len(s.root.spans) < MaxSpansPerTrace {
			s.root.spans = append(s.root.spans, s)
		}
		return false
	}
	return s.tracer.flush(s.root)
}

// flush applies the retention rules to a finished trace and stores it.
func (t *Tracer) flush(root *rootState) bool {
	if root.flushed {
		return false
	}
	root.flushed = true
	keep := root.sampled
	if !keep {
		for _, sp := range root.spans {
			if sp.Error || sp.Shed || (t.regret > 0 && sp.Regret >= t.regret) {
				keep = true
				break
			}
		}
	}
	if !keep {
		return false
	}
	kept := make([]Span, len(root.spans))
	for i, sp := range root.spans {
		kept[i] = *sp
		kept[i].root = nil // the stored copy must not pin the buffer
	}
	t.mu.Lock()
	t.store.addTrace(kept)
	exp := t.exporter
	t.mu.Unlock()
	if exp != nil {
		for _, sp := range kept {
			exp.ExportSpan(sp)
		}
	}
	return true
}

// SpanCount reports how many spans the bounded store currently retains.
func (t *Tracer) SpanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.store.n
}

// DropSession retires every stored span belonging to session, the same
// way a closed session's metric series are deleted, so the store does not
// accumulate closed sessions' traces.
func (t *Tracer) DropSession(session string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.store.dropSession(session)
}

// TraceSpans returns the stored spans of one trace in retention order
// (local root first), or nil when the trace is unknown.
func (t *Tracer) TraceSpans(id string) []Span {
	t.mu.Lock()
	lists := t.store.spanLists(id)
	t.mu.Unlock()
	var out []Span
	for _, spans := range lists {
		out = append(out, spans...)
	}
	return out
}

// TraceQuery filters Traces. MinRegret compares against the trace's
// summed span regret; pass math.Inf(-1) to admit negative-regret traces.
type TraceQuery struct {
	Session     string  // only traces touching this session ("" admits all)
	MinDuration float64 // root duration floor, seconds
	MinRegret   float64 // summed-regret floor
	ErrorOnly   bool    // only traces containing an error span
	Limit       int     // maximum summaries returned (<= 0 means 100)
}

// TraceSummary is the one-line view of a stored trace.
type TraceSummary struct {
	TraceID  string    `json:"traceId"`
	Name     string    `json:"name"` // local root span name
	Session  string    `json:"session,omitempty"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"durationSeconds"` // local root duration
	Regret   float64   `json:"regret"`          // summed span regret
	Spans    int       `json:"spans"`
	Decision string    `json:"decision,omitempty"` // serve decisions, deduplicated
	Error    bool      `json:"error,omitempty"`
	Shed     bool      `json:"shed,omitempty"`
}

// Traces summarizes the stored traces matching q, ordered by regret
// descending (ties: most recent first) — the shape "which requests pushed
// the ratio" questions want.
func (t *Tracer) Traces(q TraceQuery) []TraceSummary {
	t.mu.Lock()
	lists := t.store.spanLists("")
	t.mu.Unlock()
	byTrace, order := summarize(lists)
	return rankTraces(byTrace, order, q)
}

// rankTraces filters the per-trace summaries by q and orders them as
// Traces lists them.
func rankTraces(byTrace map[string]*TraceSummary, order []string, q TraceQuery) []TraceSummary {
	limit := q.Limit
	if limit <= 0 {
		limit = 100
	}
	out := make([]TraceSummary, 0, len(order))
	for _, id := range order {
		sum := byTrace[id]
		if q.Session != "" && sum.Session != q.Session {
			continue
		}
		if sum.Duration < q.MinDuration {
			continue
		}
		if sum.Regret < q.MinRegret {
			continue
		}
		if q.ErrorOnly && !sum.Error {
			continue
		}
		out = append(out, *sum)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return ranksBefore(out[i].Regret, out[i].Start, out[j].Regret, out[j].Start)
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Exemplar returns the id of the session's highest-regret retained trace,
// the trace a firing alert links to: the first summary
// Traces(TraceQuery{Session: session, Limit: 1}) lists, or "" when it
// lists none. It scans the per-trace summaries the store keeps, and asks
// Traces only when a scanned trace id is shared.
func (t *Tracer) Exemplar(session string) string {
	t.mu.Lock()
	id, ok := t.store.exemplar(session)
	t.mu.Unlock()
	if ok {
		return id
	}
	if ts := t.Traces(TraceQuery{Session: session, Limit: 1}); len(ts) > 0 {
		return ts[0].TraceID
	}
	return ""
}

// containsField reports whether the comma-joined list holds field.
func containsField(list, field string) bool {
	for len(list) > 0 {
		i := 0
		for i < len(list) && list[i] != ',' {
			i++
		}
		if list[:i] == field {
			return true
		}
		if i == len(list) {
			break
		}
		list = list[i+1:]
	}
	return false
}

// --- context plumbing ---

type spanCtxKey struct{}

// WithSpan attaches a span to the context (the service middleware does
// this for every request, so handlers can open children).
func WithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFrom extracts the context's span, or nil when none is attached.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// --- NDJSON export ---

// NDJSONExporter writes one JSON object per kept span to w, newline
// delimited — the interchange shape trace tooling ingests. Safe for
// concurrent use.
type NDJSONExporter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewNDJSONExporter wraps w.
func NewNDJSONExporter(w io.Writer) *NDJSONExporter {
	return &NDJSONExporter{enc: json.NewEncoder(w)}
}

// ExportSpan implements SpanExporter.
func (e *NDJSONExporter) ExportSpan(sp Span) {
	e.mu.Lock()
	_ = e.enc.Encode(sp)
	e.mu.Unlock()
}
