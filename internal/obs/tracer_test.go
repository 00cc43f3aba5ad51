package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func newTestTracer(t *testing.T, opts TracerOptions) *Tracer {
	t.Helper()
	if opts.Rand == nil {
		opts.Rand = rand.New(rand.NewSource(1))
	}
	tr, err := NewTracer(opts)
	if err != nil {
		t.Fatalf("NewTracer: %v", err)
	}
	return tr
}

func TestNewTracerRequiresRand(t *testing.T) {
	if _, err := NewTracer(TracerOptions{SampleRate: 1}); err == nil {
		t.Fatal("NewTracer without Rand succeeded, want error")
	}
}

func TestTracerHeadSamplingKeepsTrace(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 1})
	root := tr.StartRoot("GET /x", SpanContext{})
	child := root.StartChild("serve")
	child.Regret = 0.5
	child.End()
	if !root.End() {
		t.Fatal("sampled root.End() = false, want kept")
	}
	if got := tr.SpanCount(); got != 2 {
		t.Fatalf("SpanCount = %d, want 2", got)
	}
	spans := tr.TraceSpans(root.TraceID)
	if len(spans) != 2 {
		t.Fatalf("TraceSpans returned %d spans, want 2", len(spans))
	}
	if spans[0].SpanID != root.SpanID || spans[1].ParentID != root.SpanID {
		t.Fatalf("unexpected span order/parents: %+v", spans)
	}
}

func TestTracerUnsampledDiscarded(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 0})
	root := tr.StartRoot("GET /x", SpanContext{})
	root.StartChild("serve").End()
	if root.End() {
		t.Fatal("unsampled clean root kept, want discarded")
	}
	if got := tr.SpanCount(); got != 0 {
		t.Fatalf("SpanCount = %d, want 0", got)
	}
}

func TestTracerTailRules(t *testing.T) {
	cases := []struct {
		name string
		mark func(root, child *Span)
		keep bool
	}{
		{"error child", func(_, c *Span) { c.Error = true }, true},
		{"shed root", func(r, _ *Span) { r.Shed = true }, true},
		{"regret at threshold", func(_, c *Span) { c.Regret = 2.0 }, true},
		{"regret above threshold", func(_, c *Span) { c.Regret = 3.5 }, true},
		{"regret below threshold", func(_, c *Span) { c.Regret = 1.9 }, false},
		{"clean", func(_, _ *Span) {}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTestTracer(t, TracerOptions{SampleRate: 0, RegretThreshold: 2.0})
			root := tr.StartRoot("GET /x", SpanContext{})
			child := root.StartChild("serve")
			tc.mark(root, child)
			child.End()
			if got := root.End(); got != tc.keep {
				t.Fatalf("root.End() = %v, want %v", got, tc.keep)
			}
		})
	}
}

func TestTracerAdoptsParentContext(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 0})
	parent, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	root := tr.StartRoot("GET /x", parent)
	if root.TraceID != parent.TraceID.String() {
		t.Fatalf("root trace id %s, want adopted %s", root.TraceID, parent.TraceID)
	}
	if root.ParentID != parent.SpanID.String() {
		t.Fatalf("root parent id %s, want %s", root.ParentID, parent.SpanID)
	}
	if !root.Sampled() {
		t.Fatal("caller's sampled flag not adopted")
	}
	if got, want := root.Traceparent(), "00-"+root.TraceID+"-"+root.SpanID+"-01"; got != want {
		t.Fatalf("Traceparent() = %q, want %q", got, want)
	}
	if !root.End() {
		t.Fatal("adopted-sampled root not kept")
	}
}

func TestTracerStoreBoundedByCap(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 1, Cap: 8})
	var last string
	for i := 0; i < 50; i++ {
		root := tr.StartRoot("GET /x", SpanContext{})
		root.End()
		last = root.TraceID
	}
	if got := tr.SpanCount(); got != 8 {
		t.Fatalf("SpanCount = %d, want cap 8", got)
	}
	if spans := tr.TraceSpans(last); len(spans) != 1 {
		t.Fatalf("most recent trace evicted: %d spans", len(spans))
	}
	if got := len(tr.Traces(TraceQuery{MinRegret: math.Inf(-1)})); got != 8 {
		t.Fatalf("Traces returned %d summaries, want 8", got)
	}
}

func TestTracerDropSession(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 1})
	for i := 0; i < 3; i++ {
		root := tr.StartRoot("POST /v1/session/a/request", SpanContext{})
		child := root.StartChild("serve")
		child.Session = "a"
		child.End()
		root.Session = "a"
		root.End()
	}
	keep := tr.StartRoot("POST /v1/session/b/request", SpanContext{})
	keep.Session = "b"
	keep.End()
	if got := tr.SpanCount(); got != 7 {
		t.Fatalf("SpanCount = %d, want 7", got)
	}
	tr.DropSession("a")
	if got := tr.SpanCount(); got != 1 {
		t.Fatalf("after DropSession: SpanCount = %d, want 1", got)
	}
	if spans := tr.TraceSpans(keep.TraceID); len(spans) != 1 {
		t.Fatalf("session b trace lost: %d spans", len(spans))
	}
}

func TestTracerTracesQueryAndOrder(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 1})
	regrets := []float64{0.5, 3.0, -0.25, 1.5}
	ids := make([]string, len(regrets))
	for i, rg := range regrets {
		root := tr.StartRoot("POST /v1/session/{id}/request", SpanContext{})
		root.Session = "s1"
		child := root.StartChild("serve")
		child.Session = "s1"
		child.Regret = rg
		child.Decision = "transfer"
		child.End()
		root.End()
		ids[i] = root.TraceID
	}
	errRoot := tr.StartRoot("GET /bad", SpanContext{})
	errRoot.Error = true
	errRoot.End()

	all := tr.Traces(TraceQuery{MinRegret: math.Inf(-1)})
	if len(all) != 5 {
		t.Fatalf("got %d summaries, want 5", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Regret < all[i].Regret {
			t.Fatalf("summaries not regret-descending: %v then %v", all[i-1].Regret, all[i].Regret)
		}
	}

	sess := tr.Traces(TraceQuery{Session: "s1", MinRegret: math.Inf(-1)})
	if len(sess) != 4 {
		t.Fatalf("session filter: got %d, want 4", len(sess))
	}
	if sess[0].TraceID != ids[1] || sess[0].Regret != 3.0 {
		t.Fatalf("highest-regret trace first: got %+v", sess[0])
	}
	if sess[0].Decision != "transfer" || sess[0].Spans != 2 {
		t.Fatalf("summary fields: %+v", sess[0])
	}

	high := tr.Traces(TraceQuery{MinRegret: 1.0})
	if len(high) != 2 {
		t.Fatalf("min_regret filter: got %d, want 2", len(high))
	}

	errs := tr.Traces(TraceQuery{ErrorOnly: true, MinRegret: math.Inf(-1)})
	if len(errs) != 1 || errs[0].TraceID != errRoot.TraceID {
		t.Fatalf("error filter: %+v", errs)
	}

	limited := tr.Traces(TraceQuery{MinRegret: math.Inf(-1), Limit: 2})
	if len(limited) != 2 {
		t.Fatalf("limit: got %d, want 2", len(limited))
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	root := tr.StartRoot("x", SpanContext{})
	if root != nil {
		t.Fatal("nil tracer StartRoot != nil")
	}
	child := root.StartChild("y")
	if child != nil {
		t.Fatal("nil span StartChild != nil")
	}
	if root.End() || child.End() {
		t.Fatal("nil span End() = true")
	}
	if root.Sampled() {
		t.Fatal("nil span Sampled() = true")
	}
	if _, err := ParseTraceparent(root.Traceparent()); err == nil {
		t.Fatalf("nil span Traceparent() %q parses as valid", root.Traceparent())
	}
}

func TestTracerDoubleEnd(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 1})
	root := tr.StartRoot("x", SpanContext{})
	if !root.End() {
		t.Fatal("first End not kept")
	}
	if root.End() {
		t.Fatal("second End kept again")
	}
	if got := tr.SpanCount(); got != 1 {
		t.Fatalf("SpanCount = %d after double End, want 1", got)
	}
}

func TestNDJSONExporter(t *testing.T) {
	var buf bytes.Buffer
	tr := newTestTracer(t, TracerOptions{SampleRate: 1, Exporter: NewNDJSONExporter(&buf)})
	root := tr.StartRoot("GET /x", SpanContext{})
	child := root.StartChild("serve")
	child.Regret = 1.25
	child.Decision = "hit"
	child.End()
	root.End()

	drop := tr.StartRoot("GET /y", SpanContext{})
	drop.root.sampled = false // force the discard path: nothing exported
	drop.End()

	sc := bufio.NewScanner(&buf)
	var lines []Span
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, sp)
	}
	if len(lines) != 2 {
		t.Fatalf("exported %d spans, want 2", len(lines))
	}
	if lines[0].SpanID != root.SpanID || lines[1].Regret != 1.25 || lines[1].Decision != "hit" {
		t.Fatalf("exported spans: %+v", lines)
	}
}

// TestTracerAfterFlush uses the spans of a kept trace after its root has
// ended: no child starts below the root or a child, End keeps nothing,
// and Sampled and Traceparent still read the trace's verdict.
func TestTracerAfterFlush(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 1})
	root := tr.StartRoot("GET /x", SpanContext{})
	child := root.StartChild("serve")
	child.End()
	if !root.End() {
		t.Fatal("sampled root.End() = false, want kept")
	}
	for _, sp := range []*Span{root, child} {
		if late := sp.StartChild("late"); late != nil {
			t.Fatalf("StartChild on the %s span after the flush = %+v, want nil", sp.Name, late)
		}
		if sp.End() {
			t.Fatalf("End on the %s span after the flush = true", sp.Name)
		}
		if !sp.Sampled() {
			t.Fatalf("the %s span lost its sampled verdict", sp.Name)
		}
		if got, want := sp.Traceparent(), "00-"+sp.TraceID+"-"+sp.SpanID+"-01"; got != want {
			t.Fatalf("Traceparent() = %q, want %q", got, want)
		}
	}
	if got := tr.SpanCount(); got != 2 {
		t.Fatalf("SpanCount = %d, want 2", got)
	}
}

// TestTracerConcurrentReaders flushes traces on four goroutines while
// each also reads and closes: Traces and TraceSpans read stored spans
// after releasing the tracer lock, so run it under -race.
func TestTracerConcurrentReaders(t *testing.T) {
	tr := newTestTracer(t, TracerOptions{SampleRate: 1, Cap: 64})
	shared := TraceID{9}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := fmt.Sprintf("s%d", g)
			for i := 0; i < 200; i++ {
				var parent SpanContext
				if i%7 == 0 {
					parent = SpanContext{TraceID: shared, SpanID: SpanID{1}, Sampled: true}
				}
				root := tr.StartRoot("r", parent)
				root.Session = mine
				for c := 0; c < i%5; c++ {
					child := root.StartChild("serve")
					child.Session = []string{mine, "s0", ""}[c%3]
					child.Regret = float64(i%9) - 4
					child.End()
				}
				root.End()
				switch i % 4 {
				case 0:
					for _, ts := range tr.Traces(TraceQuery{MinRegret: math.Inf(-1)}) {
						for _, sp := range tr.TraceSpans(ts.TraceID) {
							if sp.TraceID != ts.TraceID {
								t.Errorf("TraceSpans(%s) returned a span of %s", ts.TraceID, sp.TraceID)
							}
						}
					}
				case 1:
					tr.Exemplar(mine)
					tr.Exemplar("")
				case 2:
					if n := len(tr.TraceSpans(root.TraceID)); n > 64 {
						t.Errorf("TraceSpans returned %d spans past the cap", n)
					}
				case 3:
					tr.DropSession(fmt.Sprintf("s%d", (g+i)%4))
				}
			}
		}(g)
	}
	wg.Wait()
	if n := tr.SpanCount(); n > 64 {
		t.Fatalf("SpanCount = %d, want at most the cap 64", n)
	}
}
