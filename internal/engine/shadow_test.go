package engine_test

import (
	"math"
	"math/rand"
	"testing"

	"datacache/internal/engine"
	"datacache/internal/model"
)

func TestCostWindow(t *testing.T) {
	w := engine.NewCostWindow(3)
	if got := w.Sum(); got != 0 {
		t.Fatalf("empty window sum = %v, want 0", got)
	}
	w.Add(1)
	w.Add(2)
	w.Add(3)
	if got := w.Sum(); got != 6 {
		t.Fatalf("filled window sum = %v, want 6", got)
	}
	if got := w.N(); got != 3 {
		t.Fatalf("filled window N = %d, want 3", got)
	}
	w.Add(10) // evicts the 1
	if got := w.Sum(); got != 15 {
		t.Fatalf("rolled window sum = %v, want 15", got)
	}
	w.Add(10) // evicts the 2
	w.Add(10) // evicts the 3
	if got := w.Sum(); got != 30 {
		t.Fatalf("fully rolled window sum = %v, want 30", got)
	}
	if got := w.N(); got != 3 {
		t.Fatalf("rolled window N = %d, want 3", got)
	}

	clamped := engine.NewCostWindow(0)
	clamped.Add(5)
	clamped.Add(7)
	if got := clamped.Sum(); got != 7 {
		t.Fatalf("clamped window sum = %v, want 7 (n<1 clamps to 1)", got)
	}
}

func TestNewShadowSetValidation(t *testing.T) {
	st := engine.State{M: 3, Origin: 1, Model: model.CostModel{Mu: 1, Lambda: 2}}
	if _, err := engine.NewShadowSet(st, 8, nil); err == nil {
		t.Error("empty shadow set should fail")
	}
	too := make([]engine.ShadowDecider, engine.MaxShadows+1)
	for i := range too {
		too[i] = engine.ShadowDecider{Name: "sc", D: &engine.SC{}}
	}
	if _, err := engine.NewShadowSet(st, 8, too); err == nil {
		t.Errorf("shadow set of %d should fail (max %d)", len(too), engine.MaxShadows)
	}
}

// TestShadowSetLockstep drives a live stream and a shadow set whose first
// shadow runs the identical decider: that shadow must report the live
// cost bit for bit, zero divergence, and a zero mask bit — while a
// genuinely different policy (Replicate vs SC) diverges and accumulates
// its own cost.
func TestShadowSetLockstep(t *testing.T) {
	cm := model.CostModel{Mu: 1, Lambda: 2}
	st := engine.State{M: 4, Origin: 1, Model: cm}
	live, err := engine.NewStream(&engine.SC{}, st)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := engine.NewShadowSet(st, 8, []engine.ShadowDecider{
		{Name: "twin", D: &engine.SC{}},
		{Name: "replicate", D: &engine.Replicate{}},
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	tt := 0.0
	diverged := 0
	for i := 0; i < 200; i++ {
		tt += 0.05 + rng.Float64()*2
		srv := model.ServerID(1 + rng.Intn(4))
		d, err := live.Serve(srv, tt)
		if err != nil {
			t.Fatal(err)
		}
		mask := ss.Serve(srv, tt, d, live.Cost(cm))
		if mask&1 != 0 {
			t.Fatalf("request %d: twin shadow diverged from its own decider", i)
		}
		if mask&2 != 0 {
			diverged++
		}
		if got, want := ss.Cost(0), live.Cost(cm); got != want {
			t.Fatalf("request %d: twin cost %v != live %v", i, got, want)
		}
	}
	if got := ss.Divergence(0); got != 0 {
		t.Errorf("twin divergence = %d, want 0", got)
	}
	if got := ss.Divergence(1); got != diverged || got == 0 {
		t.Errorf("replicate divergence = %d, want the %d masked requests (> 0)", got, diverged)
	}
	if got, want := ss.Hits(0), live.Hits(); got != want {
		t.Errorf("twin hits %d != live %d", got, want)
	}
	if got, want := ss.Transfers(0), live.Transfers(); got != want {
		t.Errorf("twin transfers %d != live %d", got, want)
	}
	// The windowed live and twin sums track the same cost deltas.
	if got, want := ss.WindowedCost(0), ss.LiveWindowedCost(); math.Abs(got-want) > 1e-9 {
		t.Errorf("twin windowed cost %v != live windowed %v", got, want)
	}
	tot := ss.Totals(1)
	if tot.Cost != ss.Cost(1) || tot.Divergence != ss.Divergence(1) {
		t.Errorf("totals %+v inconsistent with accessors", tot)
	}
}

// deadDecider never caches anything, so the stream rejects its first
// request as unserved — the error-isolation case.
type deadDecider struct{}

func (deadDecider) Name() string                      { return "dead" }
func (deadDecider) Init(engine.State) []engine.Action { return nil }
func (deadDecider) OnTimer(float64) []engine.Action   { return nil }
func (deadDecider) OnRequest(model.ServerID, float64) ([]engine.Action, error) {
	return nil, nil
}

// TestShadowSetErrorIsolation: a shadow whose decider breaks is marked
// dead and skipped; healthy shadows and the live stream continue.
func TestShadowSetErrorIsolation(t *testing.T) {
	cm := model.CostModel{Mu: 1, Lambda: 2}
	st := engine.State{M: 3, Origin: 1, Model: cm}
	live, err := engine.NewStream(&engine.SC{}, st)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := engine.NewShadowSet(st, 8, []engine.ShadowDecider{
		{Name: "dead", D: deadDecider{}},
		{Name: "sc", D: &engine.SC{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		// Server 2 is never the origin's copy, so deadDecider's refusal to
		// transfer errors out on the first request.
		d, err := live.Serve(2, float64(i))
		if err != nil {
			t.Fatal(err)
		}
		ss.Serve(2, float64(i), d, live.Cost(cm))
	}
	if ss.Err(0) == nil {
		t.Fatal("dead shadow should carry its terminal error")
	}
	if ss.Err(1) != nil {
		t.Fatalf("healthy shadow errored: %v", ss.Err(1))
	}
	if got, want := ss.Cost(1), live.Cost(cm); got != want {
		t.Errorf("healthy twin cost %v != live %v after dead shadow", got, want)
	}
	best, _ := ss.BestWindowed()
	if best != 1 {
		t.Errorf("BestWindowed = %d, want 1 (dead shadows are skipped)", best)
	}
}

// BenchmarkShadowSetServe prices the serve-path overhead of running four
// shadow policies in lockstep; run with -benchmem and compare against
// BenchmarkStreamServe for the per-request delta.
func BenchmarkShadowSetServe(b *testing.B) {
	cm := model.CostModel{Mu: 1, Lambda: 2}
	st := engine.State{M: 8, Origin: 1, Model: cm}
	live, err := engine.NewStream(&engine.SC{}, st)
	if err != nil {
		b.Fatal(err)
	}
	ss, err := engine.NewShadowSet(st, 64, []engine.ShadowDecider{
		{Name: "ttl", D: &engine.SC{Window: 1}},
		{Name: "sc16", D: &engine.SC{EpochTransfers: 16}},
		{Name: "migrate", D: &engine.Migrate{}},
		{Name: "replicate", D: &engine.Replicate{}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := float64(i+1) * 0.25
		srv := model.ServerID(1 + i%8)
		d, err := live.Serve(srv, tt)
		if err != nil {
			b.Fatal(err)
		}
		ss.Serve(srv, tt, d, live.Cost(cm))
	}
}

// BenchmarkStreamServe is the unshadowed baseline for
// BenchmarkShadowSetServe: the pair prices what four lockstep shadows
// add per request.
func BenchmarkStreamServe(b *testing.B) {
	cm := model.CostModel{Mu: 1, Lambda: 2}
	live, err := engine.NewStream(&engine.SC{}, engine.State{M: 8, Origin: 1, Model: cm})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := live.Serve(model.ServerID(1+i%8), float64(i+1)*0.25); err != nil {
			b.Fatal(err)
		}
	}
	_ = live.Cost(cm)
}

// TestShadowSetServeAllocationBound pins the serve-path overhead: the
// whole shadow step for four policies — four decider calls, four ledger
// updates, the divergence mask and the rolling windows — must stay in
// the low single digits of amortized allocations per request (the only
// allocations left are the shadows' own event-log appends).
func TestShadowSetServeAllocationBound(t *testing.T) {
	cm := model.CostModel{Mu: 1, Lambda: 2}
	st := engine.State{M: 8, Origin: 1, Model: cm}
	live, err := engine.NewStream(&engine.SC{}, st)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := engine.NewShadowSet(st, 64, []engine.ShadowDecider{
		{Name: "ttl", D: &engine.SC{Window: 1}},
		{Name: "sc16", D: &engine.SC{EpochTransfers: 16}},
		{Name: "migrate", D: &engine.Migrate{}},
		{Name: "replicate", D: &engine.Replicate{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		i++
		tt := float64(i) * 0.25
		srv := model.ServerID(1 + i%8)
		d, err := live.Serve(srv, tt)
		if err != nil {
			t.Fatal(err)
		}
		ss.Serve(srv, tt, d, live.Cost(cm))
	})
	if avg > 16 {
		t.Errorf("live+4-shadow serve averages %.1f allocs/request, want <= 16", avg)
	}
}
