package datacache_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"datacache"
	"datacache/internal/offline"
)

// poolSequence builds one item's request subsequence with the given
// origin pinned (pool items all share the pool's origin).
func poolSequence(rng *rand.Rand, m, n int, origin datacache.ServerID) *datacache.Sequence {
	seq := &datacache.Sequence{M: m, Origin: origin}
	t := 0.05 + rng.Float64()
	for i := 0; i < n; i++ {
		seq.Requests = append(seq.Requests, datacache.Request{
			Server: datacache.ServerID(1 + rng.Intn(m)),
			Time:   t,
		})
		t += 0.05 + rng.Float64()*2
	}
	return seq
}

// interleave merges per-key subsequences into one time-ordered pool feed.
func interleave(seqs map[datacache.ItemKey]*datacache.Sequence) []datacache.PoolRequest {
	var out []datacache.PoolRequest
	for key, seq := range seqs {
		for _, r := range seq.Requests {
			out = append(out, datacache.PoolRequest{
				Tenant: key.Tenant, Item: key.Item, Server: r.Server, Time: r.Time,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return datacache.ItemKey{Tenant: out[i].Tenant, Item: out[i].Item}.String() <
			datacache.ItemKey{Tenant: out[j].Tenant, Item: out[j].Item}.String()
	})
	return out
}

// TestPoolEquivalence is the tentpole acceptance check: a pool serving N
// items must yield per-item cost/optimum bitwise equal to N independent
// single-item sessions fed the same per-item subsequences — on the
// paper's Fig. 6 example and a random multi-item workload, through both
// the single-request and the batch path.
func TestPoolEquivalence(t *testing.T) {
	fig6, fig6cm := offline.Fig6Instance()

	cases := []struct {
		name string
		cm   datacache.CostModel
		seqs map[datacache.ItemKey]*datacache.Sequence
	}{
		{
			name: "fig6-three-items",
			cm:   fig6cm,
			seqs: func() map[datacache.ItemKey]*datacache.Sequence {
				// Three tenant-scoped copies of Fig. 6, times offset per
				// item so the interleaved feed exercises real mixing.
				out := map[datacache.ItemKey]*datacache.Sequence{}
				keys := []datacache.ItemKey{
					{Item: "video"},
					{Tenant: "acme", Item: "video"},
					{Tenant: "acme", Item: "profile"},
				}
				for i, key := range keys {
					seq := &datacache.Sequence{M: fig6.M, Origin: fig6.Origin}
					for _, r := range fig6.Requests {
						seq.Requests = append(seq.Requests, datacache.Request{
							Server: r.Server,
							Time:   r.Time + float64(i)*0.001,
						})
					}
					out[key] = seq
				}
				return out
			}(),
		},
		{
			name: "random-eight-items",
			cm:   datacache.CostModel{Mu: 1, Lambda: 2},
			seqs: func() map[datacache.ItemKey]*datacache.Sequence {
				rng := rand.New(rand.NewSource(7))
				out := map[datacache.ItemKey]*datacache.Sequence{}
				for i := 0; i < 8; i++ {
					key := datacache.ItemKey{Tenant: fmt.Sprintf("t%d", i%3), Item: fmt.Sprintf("item-%d", i)}
					out[key] = poolSequence(rng, 5, 60, 1)
				}
				return out
			}(),
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m int
			var origin datacache.ServerID
			for _, seq := range tc.seqs {
				m, origin = seq.M, seq.Origin
			}
			feed := interleave(tc.seqs)

			// The reference: one independent session per key.
			solo := map[datacache.ItemKey]*datacache.Session{}
			soloDecisions := map[datacache.ItemKey][]datacache.Decision{}
			for key, seq := range tc.seqs {
				sess, err := datacache.NewSession(m, origin, tc.cm, nil)
				if err != nil {
					t.Fatal(err)
				}
				solo[key] = sess
				for _, r := range seq.Requests {
					d, err := sess.Serve(r.Server, r.Time)
					if err != nil {
						t.Fatal(err)
					}
					soloDecisions[key] = append(soloDecisions[key], d)
				}
			}

			// Single path: every interleaved request through Pool.Serve.
			pool, err := datacache.NewPool(m, origin, tc.cm, &datacache.PoolOptions{TenantSLOWindow: 16})
			if err != nil {
				t.Fatal(err)
			}
			served := map[datacache.ItemKey]int{}
			var singleDecisions []datacache.PoolDecision
			for _, r := range feed {
				pd, err := pool.Serve(r.Tenant, r.Item, r.Server, r.Time)
				if err != nil {
					t.Fatal(err)
				}
				singleDecisions = append(singleDecisions, pd)
				key := datacache.ItemKey{Tenant: r.Tenant, Item: r.Item}
				want := soloDecisions[key][served[key]]
				served[key]++
				if pd.Decision != want {
					t.Fatalf("pool decision %+v != solo decision %+v (key %s, n=%d)",
						pd.Decision, want, key, served[key])
				}
			}

			// Batch path on a twin pool: one ServeBatch for the whole feed.
			batchPool, err := datacache.NewPool(m, origin, tc.cm, &datacache.PoolOptions{TenantSLOWindow: 16})
			if err != nil {
				t.Fatal(err)
			}
			res, err := batchPool.ServeBatch(context.Background(), feed)
			if err != nil {
				t.Fatal(err)
			}
			if res.FirstRejected != -1 || len(res.Decisions) != len(feed) {
				t.Fatalf("batch rejected: first=%d reason=%q applied=%d/%d",
					res.FirstRejected, res.RejectReason, len(res.Decisions), len(feed))
			}
			// The batch groups by item, so its decision order differs from
			// submission-interleaved single serving — but per item the
			// decisions must be bitwise identical, and so must the final
			// per-item standings.
			batchByKey := map[datacache.ItemKey][]datacache.PoolDecision{}
			for _, pd := range res.Decisions {
				key := datacache.ItemKey{Tenant: pd.Tenant, Item: pd.Item}
				batchByKey[key] = append(batchByKey[key], pd)
			}
			for key, want := range soloDecisions {
				got := batchByKey[key]
				if len(got) != len(want) {
					t.Fatalf("key %s: batch served %d, solo served %d", key, len(got), len(want))
				}
				for i := range want {
					if got[i].Decision != want[i] {
						t.Fatalf("key %s decision %d: batch %+v != solo %+v", key, i, got[i].Decision, want[i])
					}
				}
			}

			// Per-item totals bitwise equal to the solo sessions, on both
			// pool paths.
			for _, p := range []*datacache.Pool{pool, batchPool} {
				var sumCost, sumOpt float64
				for key, sess := range solo {
					st, ok := p.Item(key.Tenant, key.Item)
					if !ok {
						t.Fatalf("pool lost item %s", key)
					}
					if st.Cost != sess.Cost() || st.Optimal != sess.OptimalCost() {
						t.Errorf("item %s: pool (%v, %v) != solo (%v, %v)",
							key, st.Cost, st.Optimal, sess.Cost(), sess.OptimalCost())
					}
					if st.N != sess.N() || st.Hits != sess.Hits() || st.Transfers != sess.Transfers() {
						t.Errorf("item %s counters (n=%d h=%d x=%d) != solo (n=%d h=%d x=%d)",
							key, st.N, st.Hits, st.Transfers, sess.N(), sess.Hits(), sess.Transfers())
					}
					sumCost += st.Cost
					sumOpt += st.Optimal
				}
				if math.Abs(p.Cost()-sumCost) > 1e-9 || math.Abs(p.Optimal()-sumOpt) > 1e-9 {
					t.Errorf("pool totals (%v, %v) do not sum to per-item totals (%v, %v)",
						p.Cost(), p.Optimal(), sumCost, sumOpt)
				}
				if p.N() != len(feed) || p.Items() != len(tc.seqs) || p.LiveItems() != len(tc.seqs) {
					t.Errorf("pool counters n=%d items=%d live=%d, want %d/%d/%d",
						p.N(), p.Items(), p.LiveItems(), len(feed), len(tc.seqs), len(tc.seqs))
				}
			}

			// Tenant rollups sum to the pool totals too.
			var tCost, tOpt float64
			for _, ts := range pool.Tenants() {
				tCost += ts.Cost
				tOpt += ts.Optimal
			}
			if math.Abs(pool.Cost()-tCost) > 1e-9 || math.Abs(pool.Optimal()-tOpt) > 1e-9 {
				t.Errorf("tenant rollups (%v, %v) do not sum to pool totals (%v, %v)",
					tCost, tOpt, pool.Cost(), pool.Optimal())
			}

			// The batch snapshot matches the single-path pool. Pool-wide
			// totals accumulate in item-grouped order on the batch path, so
			// the comparison is to the 1e-9 rollup tolerance — the per-item
			// standings above are the bitwise check.
			if math.Abs(res.Cost-pool.Cost()) > 1e-9 || math.Abs(res.Optimal-pool.Optimal()) > 1e-9 ||
				math.Abs(res.Ratio-pool.Ratio()) > 1e-9 {
				t.Errorf("batch snapshot (%v, %v, %v) != single-path pool (%v, %v, %v)",
					res.Cost, res.Optimal, res.Ratio, pool.Cost(), pool.Optimal(), pool.Ratio())
			}
		})
	}
}

// TestPoolEviction pins the eviction contract: an evicted-then-revived
// item resumes with fresh SC state while pool-level Cost()/Optimal()
// remain monotone and sum to the per-item totals to 1e-9.
func TestPoolEviction(t *testing.T) {
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	pool, err := datacache.NewPool(4, 1, cm, &datacache.PoolOptions{MaxItems: 2})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	items := []string{"a", "b", "c", "d"}
	now := 0.0
	var prevCost, prevOpt float64
	sawRevival := false
	for round := 0; round < 30; round++ {
		item := items[rng.Intn(len(items))]
		for k := 0; k < 3; k++ {
			now += 0.1 + rng.Float64()
			pd, err := pool.Serve("", item, datacache.ServerID(1+rng.Intn(4)), now)
			if err != nil {
				t.Fatal(err)
			}
			if pd.Revived {
				sawRevival = true
				// Fresh SC state: the revived incarnation restarts, so the
				// live session behind the key is exactly one request in
				// while the item total carries the retired incarnations.
				if live := pool.ItemSession("", item); live == nil || live.N() != 1 {
					t.Errorf("revived item %s live session not fresh: %v", item, live)
				}
				if pd.ItemCost < pd.Decision.Cost {
					t.Errorf("revived item %s: item cost %v below incarnation cost %v", item, pd.ItemCost, pd.Decision.Cost)
				}
			}
			if pd.PoolCost < prevCost-1e-12 || pd.PoolOptimal < prevOpt-1e-12 {
				t.Fatalf("pool totals regressed: (%v, %v) after (%v, %v)",
					pd.PoolCost, pd.PoolOptimal, prevCost, prevOpt)
			}
			prevCost, prevOpt = pd.PoolCost, pd.PoolOptimal
		}
		if pool.LiveItems() > 2 {
			t.Fatalf("live items %d exceeds MaxItems=2", pool.LiveItems())
		}
	}
	if pool.Evictions() == 0 || !sawRevival {
		t.Fatalf("workload forced no eviction/revival (evictions=%d, revival=%v)", pool.Evictions(), sawRevival)
	}

	var sumCost, sumOpt float64
	sumN := 0
	for _, st := range pool.AllItems() {
		sumCost += st.Cost
		sumOpt += st.Optimal
		sumN += st.N
		if st.Revivals > 0 && !st.Live && st.N == 0 {
			t.Errorf("item %s/%s claims revivals without requests", st.Tenant, st.Item)
		}
	}
	if math.Abs(pool.Cost()-sumCost) > 1e-9 {
		t.Errorf("pool cost %v != per-item sum %v", pool.Cost(), sumCost)
	}
	if math.Abs(pool.Optimal()-sumOpt) > 1e-9 {
		t.Errorf("pool optimum %v != per-item sum %v", pool.Optimal(), sumOpt)
	}
	if pool.N() != sumN {
		t.Errorf("pool n %d != per-item sum %d", pool.N(), sumN)
	}

	// A revived item's stats accumulate across incarnations: pick one.
	found := false
	for _, st := range pool.AllItems() {
		if st.Revivals > 0 {
			found = true
			if st.Ratio != st.Cost/st.Optimal && st.Optimal > 0 {
				t.Errorf("item %s ratio %v inconsistent with %v/%v", st.Item, st.Ratio, st.Cost, st.Optimal)
			}
		}
	}
	if !found {
		t.Error("no item reports a revival")
	}
}

// TestPoolBatchPartialFailure pins the per-item partial semantics: a
// rejected request stops only its own item's subsequence.
func TestPoolBatchPartialFailure(t *testing.T) {
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	pool, err := datacache.NewPool(3, 1, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed := []datacache.PoolRequest{
		{Item: "a", Server: 2, Time: 1},
		{Item: "b", Server: 3, Time: 1.5},
		{Item: "a", Server: 2, Time: 0.5}, // out of order for item a: rejected
		{Item: "b", Server: 1, Time: 2},   // unaffected: item b proceeds
		{Item: "a", Server: 3, Time: 3},   // not attempted: item a is stopped
	}
	res, err := pool.ServeBatch(context.Background(), feed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 3 {
		t.Fatalf("applied %d, want 3 (a@1, b@1.5, b@2): %+v", len(res.Decisions), res.Decisions)
	}
	if res.FirstRejected != 2 || res.RejectReason == "" {
		t.Errorf("firstRejected=%d reason=%q, want index 2 with a reason", res.FirstRejected, res.RejectReason)
	}
	if len(res.Rejected) != 1 || res.Rejected[0].Index != 2 {
		t.Errorf("rejected list %+v, want exactly index 2", res.Rejected)
	}
	a, _ := pool.Item("", "a")
	b, _ := pool.Item("", "b")
	if a.N != 1 || b.N != 2 {
		t.Errorf("item request counts a=%d b=%d, want 1 and 2", a.N, b.N)
	}

	// Context cancellation stops before the next request and surfaces the
	// context's error alongside the partial result.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res2, err := pool.ServeBatch(ctx, []datacache.PoolRequest{{Item: "b", Server: 2, Time: 5}})
	if err == nil {
		t.Fatal("canceled batch returned nil error")
	}
	if len(res2.Decisions) != 0 {
		t.Errorf("canceled batch applied %d requests", len(res2.Decisions))
	}
}

// TestPoolClose pins the close contract.
func TestPoolClose(t *testing.T) {
	pool, err := datacache.NewPool(2, 1, datacache.Unit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Serve("", "x", 2, 1); err != nil {
		t.Fatal(err)
	}
	costBefore := pool.Cost()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if !pool.Closed() {
		t.Error("Closed() false after Close")
	}
	if err := pool.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := pool.Serve("", "x", 1, 2); err == nil {
		t.Error("Serve on a closed pool succeeded")
	}
	if _, err := pool.ServeBatch(context.Background(), nil); err == nil {
		t.Error("ServeBatch on a closed pool succeeded")
	}
	if pool.Cost() != costBefore {
		t.Errorf("Close changed the cost: %v -> %v", costBefore, pool.Cost())
	}
	if pool.Evictions() != 0 {
		t.Errorf("Close counted %d evictions", pool.Evictions())
	}
	if st, ok := pool.Item("", "x"); !ok || st.Live {
		t.Errorf("closed pool item standing: %+v ok=%v, want retained non-live stats", st, ok)
	}
}

// TestPoolValidation pins creation-time error surfacing.
func TestPoolValidation(t *testing.T) {
	if _, err := datacache.NewPool(0, 1, datacache.Unit, nil); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := datacache.NewPool(2, 1, datacache.Unit, &datacache.PoolOptions{MaxItems: -1}); err == nil {
		t.Error("negative MaxItems accepted")
	}
	if _, err := datacache.NewPool(2, 1, datacache.Unit, &datacache.PoolOptions{
		Session: datacache.SessionOptions{Policy: "nope"},
	}); err == nil {
		t.Error("unknown per-item policy accepted")
	}
	if _, err := datacache.NewPool(2, 1, datacache.CostModel{Mu: -1, Lambda: 1}, nil); err == nil {
		t.Error("invalid cost model accepted")
	}
}

// TestPoolBatchOrderUnderEviction pins ServeBatch's order under
// MaxItems: a batch serves keys in order of first appearance, so the
// batch [a@1, b@2, a@3] with MaxItems 1 serves a@1, a@3, b@2 — one
// eviction, a@3 a hit, cost 11 — and equals Serve calls in that grouped
// order, not in submission order (two evictions, a revived, a@3 a miss,
// cost 12).
func TestPoolBatchOrderUnderEviction(t *testing.T) {
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	newPool := func() *datacache.Pool {
		pool, err := datacache.NewPool(2, 1, cm, &datacache.PoolOptions{MaxItems: 1})
		if err != nil {
			t.Fatal(err)
		}
		return pool
	}
	batch := []datacache.PoolRequest{
		{Item: "a", Server: 2, Time: 1},
		{Item: "b", Server: 2, Time: 2},
		{Item: "a", Server: 2, Time: 3},
	}
	serveAll := func(order []int) (*datacache.Pool, []datacache.PoolDecision) {
		pool := newPool()
		out := make([]datacache.PoolDecision, len(batch))
		for _, i := range order {
			r := batch[i]
			d, err := pool.Serve(r.Tenant, r.Item, r.Server, r.Time)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = d
		}
		return pool, out
	}

	batched := newPool()
	res, err := batched.ServeBatch(context.Background(), batch)
	if err != nil || res.FirstRejected >= 0 {
		t.Fatalf("batch: %v, rejected at %d", err, res.FirstRejected)
	}
	if st := batched.Stats(); st.Evictions != 1 || st.Revivals != 0 || !res.Decisions[2].Hit || res.Cost != 11 {
		t.Fatalf("batch: %d evictions, %d revivals, a@3 hit %v, cost %v; want 1, 0, true, 11",
			st.Evictions, st.Revivals, res.Decisions[2].Hit, res.Cost)
	}

	grouped, want := serveAll([]int{0, 2, 1})
	if !reflect.DeepEqual(res.Decisions, want) || grouped.Stats() != batched.Stats() {
		t.Fatalf("batch differs from Serve calls in grouped order:\n%+v\n%+v", res.Decisions, want)
	}

	serial, dec := serveAll([]int{0, 1, 2})
	if st := serial.Stats(); st.Evictions != 2 || st.Revivals != 1 || dec[2].Hit || st.Cost != 12 {
		t.Fatalf("submission order: %d evictions, %d revivals, a@3 hit %v, cost %v; want 2, 1, false, 12",
			st.Evictions, st.Revivals, dec[2].Hit, st.Cost)
	}
}
