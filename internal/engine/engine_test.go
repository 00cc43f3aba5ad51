package engine_test

import (
	"math"
	"testing"

	"datacache/internal/engine"
	"datacache/internal/model"
)

func mustStream(t *testing.T, d engine.Decider, m int, origin model.ServerID, cm model.CostModel) *engine.Stream {
	t.Helper()
	st, err := engine.NewStream(d, engine.State{M: m, Origin: origin, Model: cm})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamSCHandTrace walks the canonical SC through a tiny instance under
// the unit model (Δt = 1) and checks every decision and the final cost.
func TestStreamSCHandTrace(t *testing.T) {
	st := mustStream(t, &engine.SC{}, 2, 1, model.Unit)

	// t=0.5 at server 2: miss, served from the origin.
	d, err := st.Serve(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hit || d.From != 1 {
		t.Fatalf("first request: %+v, want miss from 1", d)
	}

	// t=1.0 at server 2: within the window, a hit.
	d, err = st.Serve(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Hit || d.From != 0 {
		t.Fatalf("second request: %+v, want hit", d)
	}

	// t=3.0 at server 1: server 1's copy expired at t=1.5 (refresh at the
	// transfer), server 2's at t=2.0 but survives as the last copy; the miss
	// is served from 2.
	d, err = st.Serve(1, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hit || d.From != 2 {
		t.Fatalf("third request: %+v, want miss from 2", d)
	}

	sched, err := st.Finish(3.0)
	if err != nil {
		t.Fatal(err)
	}
	// Caching: s1 [0,1.5] + s1 [3,3] (zero-length, dropped) + s2 [0.5,2] +
	// s2 [3,3] (dropped? no: s2 refreshed at 3 as transfer source, survives
	// to end 3 → zero-length from 3? s2's interval is [0.5, 3]: it was
	// extended as the last copy until the t=3 transfer refreshed it).
	// Cost = transfers 2λ + caching μ·(1.5 + 2.5) = 2 + 4 = 6.
	if got := sched.Cost(model.Unit); math.Abs(got-6.0) > 1e-9 {
		t.Errorf("cost = %v, want 6", got)
	}
	if st.N() != 3 || st.Hits() != 1 || st.Transfers() != 2 {
		t.Errorf("counters: n=%d hits=%d transfers=%d", st.N(), st.Hits(), st.Transfers())
	}
}

// TestStreamPinnedLoneCopy checks the tiny-window regime: with a window
// floored near zero, a lone copy is pinned instead of rearming timers, so a
// huge idle gap costs no event-loop work and the run still finishes with a
// feasible schedule.
func TestStreamPinnedLoneCopy(t *testing.T) {
	zero := func(model.ServerID) float64 { return 0 }
	st := mustStream(t, &engine.SC{WindowOf: zero}, 3, 1, model.Unit)
	if _, err := st.Serve(2, 1.0); err != nil {
		t.Fatal(err)
	}
	// A gap of 10^9 time units: with the reference's timer-jumping this
	// would be ~10^21 events; with pinning it is O(1).
	if _, err := st.Serve(3, 1e9); err != nil {
		t.Fatal(err)
	}
	sched, err := st.Finish(1e9)
	if err != nil {
		t.Fatal(err)
	}
	seq := &model.Sequence{M: 3, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 1.0}, {Server: 3, Time: 1e9},
	}}
	if err := sched.Validate(seq); err != nil {
		t.Fatalf("schedule infeasible: %v", err)
	}
}

// TestStreamErrors exercises the driver's rejection paths.
func TestStreamErrors(t *testing.T) {
	if _, err := engine.NewStream(&engine.SC{}, engine.State{M: 0, Origin: 1, Model: model.Unit}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := engine.NewStream(&engine.SC{}, engine.State{M: 3, Origin: 4, Model: model.Unit}); err == nil {
		t.Error("origin out of range accepted")
	}
	st := mustStream(t, &engine.SC{}, 3, 1, model.Unit)
	if _, err := st.Serve(2, 0); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := st.Serve(0, 1); err == nil {
		t.Error("server 0 accepted")
	}
	if _, err := st.Serve(4, 1); err == nil {
		t.Error("server 4 accepted")
	}
	if _, err := st.Serve(2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Serve(3, 1); err == nil {
		t.Error("non-increasing time accepted")
	}
	if _, err := st.Finish(0.5); err == nil {
		t.Error("end before last request accepted")
	}
	if _, err := st.Finish(2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Serve(3, 3); err == nil {
		t.Error("serve after finish accepted")
	}
	if _, err := st.Finish(3); err == nil {
		t.Error("double finish accepted")
	}
}

// TestStreamSnapshotNonDestructive checks that mid-stream cost reads do not
// disturb the run.
func TestStreamSnapshotNonDestructive(t *testing.T) {
	st := mustStream(t, &engine.SC{}, 3, 1, model.Unit)
	times := []float64{0.4, 1.1, 1.9, 3.5}
	servers := []model.ServerID{2, 3, 2, 1}
	prev := 0.0
	for i := range times {
		if _, err := st.Serve(servers[i], times[i]); err != nil {
			t.Fatal(err)
		}
		c := st.Cost(model.Unit)
		if c < prev-1e-12 {
			t.Fatalf("cost decreased: %v -> %v", prev, c)
		}
		prev = c
	}
	sched, err := st.Finish(times[len(times)-1])
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Cost(model.Unit); got != prev {
		t.Errorf("final cost %v != last snapshot %v", got, prev)
	}
}

// TestStreamAllocations pins the ledger's footprint: Cost reads it
// without allocating, however many requests the stream has served, and
// NewStream allocates only the Stream and its one per-server ledger slice
// beside what the decider's Init allocates (one slice for Replicate).
func TestStreamAllocations(t *testing.T) {
	cm := model.CostModel{Mu: 1, Lambda: 2}
	st := mustStream(t, &engine.SC{}, 8, 1, cm)
	for i := 1; i <= 500; i++ {
		if _, err := st.Serve(model.ServerID(1+i%8), float64(i)*0.3); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = st.Cost(cm) }); n != 0 {
		t.Errorf("Stream.Cost allocates %v objects per call, want 0", n)
	}
	state := engine.State{M: 16, Origin: 1, Model: cm}
	d := &engine.Replicate{}
	if n := testing.AllocsPerRun(100, func() { _, _ = engine.NewStream(d, state) }); n > 3 {
		t.Errorf("NewStream allocates %v objects, want at most 3", n)
	}
}

// TestMigrateDecider checks the single-nomadic-copy baseline at the decider
// level.
func TestMigrateDecider(t *testing.T) {
	st := mustStream(t, &engine.Migrate{}, 3, 1, model.Unit)
	d, err := st.Serve(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hit || d.From != 1 {
		t.Fatalf("miss expected from 1: %+v", d)
	}
	if d, _ = st.Serve(2, 2); !d.Hit {
		t.Fatalf("repeat on holder should hit: %+v", d)
	}
	if d, _ = st.Serve(3, 3); d.Hit || d.From != 2 {
		t.Fatalf("move expected from 2: %+v", d)
	}
	sched, err := st.Finish(3)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one copy at all times: caching cost μ·t_n = 3, transfers 2λ.
	if got := sched.Cost(model.Unit); math.Abs(got-5.0) > 1e-9 {
		t.Errorf("cost = %v, want 5", got)
	}
}

// TestReplicateDecider checks the replicate-on-first-touch baseline.
func TestReplicateDecider(t *testing.T) {
	st := mustStream(t, &engine.Replicate{}, 3, 1, model.Unit)
	if d, _ := st.Serve(2, 1); d.Hit || d.From != 1 {
		t.Fatal("first touch of 2 should transfer from 1")
	}
	if d, _ := st.Serve(3, 2); d.Hit || d.From != 2 {
		t.Fatal("first touch of 3 should transfer from the latest copy (2)")
	}
	if d, _ := st.Serve(2, 3); !d.Hit {
		t.Fatal("revisit of 2 should hit")
	}
	sched, err := st.Finish(4)
	if err != nil {
		t.Fatal(err)
	}
	// Copies never die: s1 [0,4], s2 [1,4], s3 [2,4] plus 2 transfers.
	if got := sched.Cost(model.Unit); math.Abs(got-11.0) > 1e-9 {
		t.Errorf("cost = %v, want 11", got)
	}
}

// TestSCNames pins the decider naming scheme the adapters rely on.
func TestSCNames(t *testing.T) {
	cases := []struct {
		d    engine.Decider
		want string
	}{
		{&engine.SC{}, "SC"},
		{&engine.SC{EpochTransfers: 4}, "SC(epoch=4)"},
		{&engine.SC{Window: 0.5}, "TTL(0.5)"},
		{&engine.SC{MaxCopies: 2}, "SC(cap=2)"},
		{&engine.Migrate{}, "migrate"},
		{&engine.Replicate{}, "replicate"},
	}
	for _, tc := range cases {
		if got := tc.d.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}
