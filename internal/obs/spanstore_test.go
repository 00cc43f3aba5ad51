package obs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// storedNames lists the names of the stored traces, oldest first, as
// Traces reports them (latest start first, at equal regret), with the
// number of stored spans.
func storedNames(tr *Tracer) string {
	ts := tr.Traces(TraceQuery{MinRegret: math.Inf(-1)})
	var b strings.Builder
	for i := len(ts) - 1; i >= 0; i-- {
		b.WriteString(ts[i].Name)
	}
	return fmt.Sprintf("%s/%d", b.String(), tr.SpanCount())
}

// TestSpanStoreDropKeepsRingOrder drops a session from a ring that has
// wrapped: the kept spans stay in order, none is duplicated, and the ring
// keeps its order as it fills and wraps again.
func TestSpanStoreDropKeepsRingOrder(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 1, Cap: 8})
	clock := time.Unix(1e9, 0)
	tr.now = func() time.Time { clock = clock.Add(time.Millisecond); return clock }
	add := func(names string) {
		for _, name := range names {
			root := tr.StartRoot(string(name), SpanContext{})
			if name == 'i' || name == 'm' {
				root.Session = "x"
			}
			root.End()
		}
	}
	add("abcdefghijklm")
	if got := storedNames(tr); got != "fghijklm/8" {
		t.Fatalf("before the drop the ring holds %q, want fghijklm/8", got)
	}
	tr.DropSession("x")
	if got := storedNames(tr); got != "fghjkl/6" {
		t.Fatalf("after dropping i and m the ring holds %q, want fghjkl/6", got)
	}
	add("no")
	if got := storedNames(tr); got != "fghjklno/8" {
		t.Fatalf("refilled ring holds %q, want fghjklno/8", got)
	}
	add("pq")
	if got := storedNames(tr); got != "hjklnopq/8" {
		t.Fatalf("rewrapped ring holds %q, want hjklnopq/8", got)
	}
}

// TestExemplarMatchesTraces holds Exemplar to its definition after every
// step of random programs of flushes and drops: it must name the first
// trace Traces(TraceQuery{Session, Limit: 1}) lists, for every session.
// The programs use small caps, so traces are evicted whole and in part;
// incoming trace ids from a small pool, so stored traces share ids;
// spans of several sessions in one trace; negative, signed-zero and NaN
// regrets from a small set, so regrets tie; and a clock that stalls and
// steps back, so starts tie and durations go negative.
func TestExemplarMatchesTraces(t *testing.T) {
	seeds, steps := 300, 300
	if testing.Short() {
		seeds = 60
	}
	sessions := []string{"", "a", "b", "c"}
	regrets := []float64{-1, -0.5, math.Copysign(0, -1), 0, 0, 0.5, 1, 1, 2}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		opts := TracerOptions{
			SampleRate: 1,
			Cap:        []int{1, 2, 3, 5, 8, 16}[rng.Intn(6)],
			Rand:       rand.New(rand.NewSource(int64(seed))),
		}
		if seed%3 == 0 {
			opts.SampleRate, opts.RegretThreshold = 0.5, 1
		}
		tr := newTestTracer(t, opts)
		clock := time.Unix(1e9, 0)
		tr.now = func() time.Time { return clock }
		tick := func() {
			switch k := rng.Intn(10); {
			case k < 3: // stalled: equal starts
			case k < 9:
				clock = clock.Add(time.Millisecond)
			default:
				clock = clock.Add(-time.Millisecond)
			}
		}
		reused := make([]TraceID, 3)
		for i := range reused {
			reused[i] = NewTraceID(rng)
		}
		pick := func() string { return sessions[rng.Intn(len(sessions))] }
		regret := func() float64 {
			if rng.Intn(50) == 0 {
				return math.NaN()
			}
			return regrets[rng.Intn(len(regrets))]
		}
		var log []string
		for step := 0; step < steps; step++ {
			if rng.Intn(8) == 0 {
				s := pick()
				tr.DropSession(s)
				log = append(log, "drop "+s)
			} else {
				var parent SpanContext
				if rng.Intn(3) == 0 {
					parent = SpanContext{TraceID: reused[rng.Intn(len(reused))], SpanID: NewSpanID(rng), Sampled: rng.Intn(2) == 0}
				}
				tick()
				root := tr.StartRoot("r", parent)
				root.Session = pick()
				root.Regret = regret()
				session := root.Session
				children := rng.Intn(4)
				if rng.Intn(20) == 0 {
					children = 20 // longer than most caps
				}
				for c := 0; c < children; c++ {
					tick()
					child := root.StartChild("serve")
					child.Session = session
					if rng.Intn(4) == 0 {
						child.Session = pick()
					}
					child.Regret = regret()
					child.Error = rng.Intn(30) == 0
					tick()
					child.End()
				}
				tick()
				kept := root.End()
				log = append(log, fmt.Sprintf("trace %s session %q children %d kept %v", root.TraceID[:6], session, children, kept))
			}
			for _, s := range sessions {
				want := ""
				if ts := tr.Traces(TraceQuery{Session: s, Limit: 1}); len(ts) > 0 {
					want = ts[0].TraceID
				}
				if got := tr.Exemplar(s); got != want {
					t.Fatalf("seed %d cap %d step %d: Exemplar(%q) = %q, Traces lists %q first\nlast steps: %s",
						seed, opts.Cap, step, s, got, want, strings.Join(log[max(0, len(log)-6):], "; "))
				}
			}
		}
	}
}

// flushTrace stores one trace: a root of the first session with the
// given regret and one child per further session. A non-zero id is
// adopted as an incoming trace id.
func flushTrace(tr *Tracer, id TraceID, regret float64, sessions ...string) string {
	var parent SpanContext
	if !id.IsZero() {
		parent = SpanContext{TraceID: id, SpanID: SpanID{1}, Sampled: true}
	}
	root := tr.StartRoot("r", parent)
	root.Session = sessions[0]
	root.Regret = regret
	for _, s := range sessions[1:] {
		child := root.StartChild("c")
		child.Session = s
		child.End()
	}
	root.End()
	return root.TraceID
}

// checkExemplar requires Exemplar(session) to name Traces' first trace.
func checkExemplar(t *testing.T, tr *Tracer, session string) string {
	t.Helper()
	want := ""
	if ts := tr.Traces(TraceQuery{Session: session, Limit: 1}); len(ts) > 0 {
		want = ts[0].TraceID
	}
	if got := tr.Exemplar(session); got != want {
		t.Fatalf("Exemplar(%q) = %q, Traces lists %q first", session, got, want)
	}
	return want
}

// TestExemplarAfterDroppingAnEvictedOwner drops a session that owned the
// partly evicted oldest trace, whose id another trace shares, then reuses
// the session id: the new session's shared trace must still be merged as
// Traces merges it.
func TestExemplarAfterDroppingAnEvictedOwner(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 1, Cap: 5})
	shared, merged := TraceID{1}, TraceID{2}
	flushTrace(tr, shared, 0, "s", "")     // its root, the owner's span, is evicted below
	flushTrace(tr, shared, 0, "x")         // shares the id
	flushTrace(tr, TraceID{}, 0, "s")      // dropped below
	flushTrace(tr, TraceID{}, 0, "y", "y") // evicts the first root
	tr.DropSession("s")
	flushTrace(tr, merged, 1, "s")
	flushTrace(tr, merged, 2, "z") // merged into s's trace: regret 3
	flushTrace(tr, TraceID{}, 2, "s")
	if got := checkExemplar(t, tr, "s"); got != merged.String() {
		t.Fatalf("exemplar %q, want the merged trace %q", got, merged)
	}
}

// TestExemplarReadsTheIndex pins where the lookup's answer comes from: a
// session whose traces share no id answers from the index without
// allocating, on a full store that evicts traces whole and in part; one
// whose trace shares its id with another stored trace summarizes the
// store until the ring has evicted the other.
func TestExemplarReadsTheIndex(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 1, Cap: 64})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s := fmt.Sprintf("s%d", i%4)
		sessions := []string{s, s, s}[:1+i%3] // one to three spans: the oldest trace is often partial
		flushTrace(tr, TraceID{}, rng.NormFloat64(), sessions...)
		checkExemplar(t, tr, s)
		if allocs := testing.AllocsPerRun(10, func() { tr.Exemplar(s) }); allocs != 0 {
			t.Fatalf("step %d: Exemplar(%q) allocated %v times, want an index read", i, s, allocs)
		}
	}
	id := TraceID{7}
	flushTrace(tr, id, 5, "s0")
	flushTrace(tr, id, 5, "s1")
	for _, s := range []string{"s0", "s1"} {
		checkExemplar(t, tr, s)
		if allocs := testing.AllocsPerRun(10, func() { tr.Exemplar(s) }); allocs == 0 {
			t.Fatalf("Exemplar(%q) of a shared trace id read the index", s)
		}
	}
	for i := 0; i < 63; i++ { // evict the first of the two
		flushTrace(tr, TraceID{}, -1, "s2")
	}
	for _, s := range []string{"s0", "s1"} {
		checkExemplar(t, tr, s)
		if allocs := testing.AllocsPerRun(10, func() { tr.Exemplar(s) }); allocs != 0 {
			t.Fatalf("Exemplar(%q) allocated %v times once the id was no longer shared", s, allocs)
		}
	}
}

// fullStore fills a default-cap tracer with two-span traces of 32
// sessions, wrapping the ring once.
func fullStore(b *testing.B) *Tracer {
	tr, err := NewTracer(TracerOptions{Rand: rand.New(rand.NewSource(1)), SampleRate: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < DefaultSpanCap; i++ {
		session := fmt.Sprintf("sn-%d", i%32)
		root := tr.StartRoot("POST /v1/session/", SpanContext{})
		root.Session = session
		child := root.StartChild("serve")
		child.Session = session
		child.Regret = rng.NormFloat64()
		child.End()
		root.End()
	}
	if tr.SpanCount() != DefaultSpanCap {
		b.Fatalf("store holds %d spans, want %d", tr.SpanCount(), DefaultSpanCap)
	}
	return tr
}

// BenchmarkExemplar prices the firing-alert exemplar lookup on a full
// store: the index, and the Traces query it answers for.
func BenchmarkExemplar(b *testing.B) {
	tr := fullStore(b)
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr.Exemplar("sn-7") == "" {
				b.Fatal("no exemplar")
			}
		}
	})
	b.Run("traces", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(tr.Traces(TraceQuery{Session: "sn-7", Limit: 1})) == 0 {
				b.Fatal("no exemplar")
			}
		}
	})
}

// TestSpanStoreMatchesSpanList holds the store to a plain span list after
// every step of random programs of flushes and closes: the list appends a
// kept trace's spans, drops from the front past the cap and filters a
// closed session out. The programs use caps of 1 to 16 and traces of 1
// to 20 spans, so traces are evicted whole and in part; incoming trace
// ids from a small pool, so stored traces share ids; and spans of several
// sessions in one trace. SpanCount, TraceSpans of every stored id and
// Traces with no floors must match the list, regret bit for bit.
func TestSpanStoreMatchesSpanList(t *testing.T) {
	seeds, steps := 200, 200
	if testing.Short() {
		seeds = 40
	}
	sessions := []string{"", "a", "b", "c"}
	decisions := []string{"", "hit", "transfer"}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cap := 1 + rng.Intn(16)
		tr := newTestTracer(t, TracerOptions{SampleRate: 0.8, RegretThreshold: 1.5, Cap: cap, Rand: rand.New(rand.NewSource(int64(seed)))})
		clock := time.Unix(1e9, 0)
		tr.now = func() time.Time { clock = clock.Add(time.Duration(rng.Intn(3)-1) * time.Millisecond); return clock }
		reused := []TraceID{NewTraceID(rng), NewTraceID(rng)}
		var list []Span
		for step := 0; step < steps; step++ {
			if rng.Intn(6) == 0 {
				s := sessions[rng.Intn(len(sessions))]
				tr.DropSession(s)
				kept := list[:0:0]
				for _, sp := range list {
					if sp.Session != s {
						kept = append(kept, sp)
					}
				}
				list = kept
			} else {
				var parent SpanContext
				if rng.Intn(3) == 0 {
					parent = SpanContext{TraceID: reused[rng.Intn(len(reused))], SpanID: NewSpanID(rng), Sampled: rng.Intn(2) == 0}
				}
				root := tr.StartRoot(fmt.Sprintf("r%d", step), parent)
				root.Session = sessions[rng.Intn(len(sessions))]
				spans := []*Span{root}
				for c := rng.Intn(20); c > 0; c-- {
					child := root.StartChild("serve")
					child.Session = sessions[rng.Intn(len(sessions))]
					child.Decision = decisions[rng.Intn(len(decisions))]
					child.Regret = float64(rng.Intn(7)-3) / 2
					if rng.Intn(40) == 0 {
						child.Regret = math.NaN()
					}
					child.Error = rng.Intn(30) == 0
					child.Shed = rng.Intn(30) == 0
					child.End()
					spans = append(spans, child)
				}
				if root.End() {
					for _, sp := range spans {
						list = append(list, *sp)
					}
					if len(list) > cap {
						list = list[len(list)-cap:]
					}
				}
			}
			where := fmt.Sprintf("seed %d cap %d step %d", seed, cap, step)
			if got := tr.SpanCount(); got != len(list) {
				t.Fatalf("%s: SpanCount %d, want %d", where, got, len(list))
			}
			for _, sp := range list {
				checkTraceSpans(t, where, tr.TraceSpans(sp.TraceID), list, sp.TraceID)
			}
			got, want := tr.Traces(TraceQuery{MinDuration: math.Inf(-1), MinRegret: math.Inf(-1)}), listSummaries(list)
			if len(got) != len(want) {
				t.Fatalf("%s: Traces lists %d traces, want %d", where, len(got), len(want))
			}
			for i := range want {
				if !sameSummary(got[i], want[i]) {
					t.Fatalf("%s: Traces[%d] = %+v, want %+v", where, i, got[i], want[i])
				}
			}
		}
	}
}

// checkTraceSpans requires got to be the list's spans of trace id, in
// order, regret bit for bit.
func checkTraceSpans(t *testing.T, where string, got, list []Span, id string) {
	t.Helper()
	i := 0
	for _, want := range list {
		if want.TraceID != id {
			continue
		}
		if i >= len(got) {
			t.Fatalf("%s: TraceSpans(%s) holds %d spans, want more", where, id[:6], len(got))
		}
		a, b := got[i], want
		if math.Float64bits(a.Regret) != math.Float64bits(b.Regret) {
			t.Fatalf("%s: TraceSpans(%s)[%d] regret %v, want %v", where, id[:6], i, a.Regret, b.Regret)
		}
		a.Regret, b.Regret = 0, 0
		a.root, b.root = nil, nil // a stored copy drops the trace's buffer
		if a != b {
			t.Fatalf("%s: TraceSpans(%s)[%d] = %+v, want %+v", where, id[:6], i, a, b)
		}
		i++
	}
	if i != len(got) {
		t.Fatalf("%s: TraceSpans(%s) holds %d spans, want %d", where, id[:6], len(got), i)
	}
}

// listSummaries summarizes a span list as Traces documents it: one
// summary per trace id, fields from the id's first span, regret summed in
// list order; ordered by regret descending, NaN last, the later start
// first between equals, and list order between full ties.
func listSummaries(list []Span) []TraceSummary {
	var out []TraceSummary
	at := map[string]int{}
	for _, sp := range list {
		i, ok := at[sp.TraceID]
		if !ok {
			i = len(out)
			at[sp.TraceID] = i
			out = append(out, TraceSummary{TraceID: sp.TraceID, Name: sp.Name, Start: sp.Start, Duration: sp.Duration})
		}
		sum := &out[i]
		sum.Spans++
		sum.Regret += sp.Regret
		sum.Error = sum.Error || sp.Error
		sum.Shed = sum.Shed || sp.Shed
		if sum.Session == "" {
			sum.Session = sp.Session
		}
		if sp.Decision != "" && !slices.Contains(strings.Split(sum.Decision, ","), sp.Decision) {
			sum.Decision = strings.TrimPrefix(sum.Decision+","+sp.Decision, ",")
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if an, bn := math.IsNaN(a.Regret), math.IsNaN(b.Regret); an || bn {
			return !an || (bn && a.Start.After(b.Start))
		}
		if a.Regret != b.Regret {
			return a.Regret > b.Regret
		}
		return a.Start.After(b.Start)
	})
	return out
}

// sameSummary compares two summaries field by field, regret bit for bit.
func sameSummary(a, b TraceSummary) bool {
	if math.Float64bits(a.Regret) != math.Float64bits(b.Regret) {
		return false
	}
	a.Regret, b.Regret = 0, 0
	return a == b
}

// BenchmarkFlush prices one kept trace, minted and stored into a full
// default-cap store: a two-span single serve and a 65-span pool batch.
func BenchmarkFlush(b *testing.B) {
	for _, spans := range []int{2, 65} {
		b.Run(fmt.Sprintf("spans=%d", spans), func(b *testing.B) {
			tr := fullStore(b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root := tr.StartRoot("POST /v1/pool/", SpanContext{})
				root.Session = "p"
				for c := 1; c < spans; c++ {
					child := root.StartChild("serve")
					child.Session = "p"
					child.End()
				}
				root.End()
			}
		})
	}
}
