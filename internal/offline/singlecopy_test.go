package offline

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"datacache/internal/model"
)

func TestSingleCopySandwichedByOptAndMigrate(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		seq, cm := randomInstance(rng, 6, 20)
		opt, err := FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		single, err := SingleCopyOptimal(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		if single < opt.Cost()-1e-9 {
			t.Fatalf("trial %d: single-copy %v below unrestricted optimum %v\nseq=%+v cm=%+v",
				trial, single, opt.Cost(), seq, cm)
		}
		// AlwaysMigrate is one single-copy schedule, so it upper-bounds the
		// single-copy optimum.
		if seq.N() > 0 {
			migrate := cm.Mu * seq.End()
			holder := seq.Origin
			for _, r := range seq.Requests {
				if r.Server != holder {
					migrate += cm.Lambda
					holder = r.Server
				}
			}
			if single > migrate+1e-9 {
				t.Fatalf("trial %d: single-copy optimum %v above AlwaysMigrate %v", trial, single, migrate)
			}
		}
	}
}

func TestSingleCopyExactOnHandInstance(t *testing.T) {
	// Two servers, requests ping-pong tightly: the single-copy optimum must
	// transfer on every switch, while the unrestricted optimum replicates.
	cm := model.Unit
	seq := &model.Sequence{M: 2, Origin: 1}
	for i := 0; i < 10; i++ {
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + i%2),
			Time:   0.1 + float64(i)*0.1,
		})
	}
	single, err := SingleCopyOptimal(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	// Best single-copy plan: park at s1 (hold 1.0) and pay one one-shot
	// transfer per s2 request: 1.0 + 5λ = 6. Chasing would cost 10.
	if !approxEq(single, 6) {
		t.Errorf("single-copy = %v, want 6", single)
	}
	opt, err := FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	// Unrestricted: replicate once (λ at t=0.2) and cache both copies up to
	// their last use: s1 over [0, 0.9] and s2 over [0.2, 1.0] → 2.7.
	if !approxEq(opt.Cost(), 2.7) {
		t.Errorf("optimum = %v, want 2.7", opt.Cost())
	}
}

func TestReplicationBenefitTracksRevisitGap(t *testing.T) {
	// Replication pays exactly when a server's revisit gap μσ is below the
	// transfer cost λ: tight rotations profit, loose rotations do not.
	cm := model.Unit
	ratioFor := func(spacing float64) float64 {
		const m = 4
		seq := &model.Sequence{M: m, Origin: 1}
		tm := 0.0
		for i := 0; i < 60; i++ {
			tm += spacing
			seq.Requests = append(seq.Requests, model.Request{
				Server: model.ServerID(1 + i%m), Time: tm,
			})
		}
		single, err := SingleCopyOptimal(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		return single / opt.Cost()
	}
	tight := ratioFor(0.05) // revisit gap 0.2 << λ: caching everywhere wins
	loose := ratioFor(0.5)  // revisit gap 2.0 > λ: one copy is as good
	if tight < 1.5 {
		t.Errorf("tight-rotation replication benefit = %v, want substantial (>1.5)", tight)
	}
	if loose > 1.1 {
		t.Errorf("loose-rotation replication benefit = %v, want ≈1", loose)
	}
}

func TestSingleCopyEdgeCases(t *testing.T) {
	if _, err := SingleCopyOptimal(&model.Sequence{M: 0}, model.Unit); err == nil {
		t.Error("invalid sequence accepted")
	}
	seq := &model.Sequence{M: 3, Origin: 2}
	got, err := SingleCopyOptimal(seq, model.Unit)
	if err != nil || got != 0 {
		t.Errorf("empty = (%v, %v)", got, err)
	}
	if _, err := SingleCopyOptimal(seq, model.CostModel{}); err == nil {
		t.Error("invalid cost model accepted")
	}
}

func TestComputeBoundsEnvelopeOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 300; trial++ {
		seq, cm := randomInstance(rng, 6, 20)
		b, err := ComputeBounds(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		if b.Lower > opt.Cost()+1e-9 {
			t.Fatalf("trial %d: lower bound %v above optimum %v\nseq=%+v cm=%+v",
				trial, b.Lower, opt.Cost(), seq, cm)
		}
		if seq.N() > 0 && b.Upper < opt.Cost()-1e-9 {
			t.Fatalf("trial %d: upper bound %v below optimum %v", trial, b.Upper, opt.Cost())
		}
	}
}

func TestComputeBoundsTightCases(t *testing.T) {
	cm := model.Unit
	// All requests at the origin: Lower == Upper == optimum == μ·t_n.
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 1, Time: 1}, {Server: 1, Time: 2},
	}}
	b, err := ComputeBounds(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(b.Lower, 2) || !approxEq(b.Upper, 2) {
		t.Errorf("bounds = %+v, want [2, 2]", b)
	}
	empty := &model.Sequence{M: 2, Origin: 1}
	b, err = ComputeBounds(empty, cm)
	if err != nil || b.Lower != 0 || b.Upper != 0 {
		t.Errorf("empty bounds = %+v (%v)", b, err)
	}
	if _, err := ComputeBounds(&model.Sequence{M: 0}, cm); err == nil {
		t.Error("invalid sequence accepted")
	}
	if _, err := ComputeBounds(seq, model.CostModel{}); err == nil {
		t.Error("invalid cost model accepted")
	}
}

func TestOptimizeBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	var items []BatchItem
	for i := 0; i < 50; i++ {
		seq, cm := randomInstance(rng, 5, 30)
		items = append(items, BatchItem{Name: string(rune('a' + i%26)), Seq: seq, Model: cm})
	}
	results := OptimizeBatch(items, 8)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		want, err := FastDP(items[i].Seq, items[i].Model)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(r.Cost, want.Cost()) {
			t.Fatalf("item %d: batch %v != sequential %v", i, r.Cost, want.Cost())
		}
	}
}

func TestOptimizeBatchFailureIsolation(t *testing.T) {
	good, cm := Fig6Instance()
	items := []BatchItem{
		{Name: "good", Seq: good, Model: cm},
		{Name: "nil", Seq: nil, Model: cm},
		{Name: "bad", Seq: &model.Sequence{M: 0}, Model: cm},
	}
	results := OptimizeBatch(items, 2)
	if results[0].Err != nil || !approxEq(results[0].Cost, 8.9) {
		t.Errorf("good item: %+v", results[0])
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Error("bad items did not error")
	}
}

func TestOptimizeBatchWorkerClamping(t *testing.T) {
	seq, cm := Fig6Instance()
	for _, workers := range []int{-1, 0, 1, 100} {
		results := OptimizeBatch([]BatchItem{{Name: "x", Seq: seq, Model: cm}}, workers)
		if len(results) != 1 || results[0].Err != nil {
			t.Fatalf("workers=%d: %+v", workers, results)
		}
	}
	if got := OptimizeBatch(nil, 4); len(got) != 0 {
		t.Errorf("empty batch produced %v", got)
	}
}

func TestOptimizeBatchCtxCancellation(t *testing.T) {
	seq, cm := Fig6Instance()
	var items []BatchItem
	for i := 0; i < 64; i++ {
		items = append(items, BatchItem{Name: "x", Seq: seq, Model: cm})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any work starts
	results := OptimizeBatchCtx(ctx, items, 4)
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("item %d completed despite cancelled context", i)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("item %d error %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestOptimizeBatchParallelismActuallyRuns(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-CPU environment")
	}
	// Indirect check: a batch of many medium instances completes with all
	// results populated when run with several workers under -race.
	rng := rand.New(rand.NewSource(83))
	var items []BatchItem
	var n32 int32
	for i := 0; i < 32; i++ {
		seq, cm := randomInstance(rng, 6, 60)
		items = append(items, BatchItem{Name: "it", Seq: seq, Model: cm})
	}
	results := OptimizeBatch(items, 4)
	for _, r := range results {
		if r.Err == nil {
			atomic.AddInt32(&n32, 1)
		}
	}
	if n32 != 32 {
		t.Fatalf("completed %d of 32", n32)
	}
}
