package main

import (
	"container/list"
	"context"
	"fmt"
	"math"

	"datacache"
)

// outcome is a unit's final standing: what the server reports when the
// session or pool closes, and what the in-process reference computes from
// the same generated requests.
type outcome struct {
	N         int     `json:"n"`
	Hits      int     `json:"hits"`
	Transfers int     `json:"transfers"`
	Evictions int     `json:"evictions"`
	Revivals  int     `json:"revivals"`
	Cost      float64 `json:"cost"`
	Optimal   float64 `json:"optimal"`
}

// reference computes a unit's expected outcome in process. The policy
// cost comes from the library itself: datacache.Serve for the canonical
// SC session (which Session matches exactly), an in-process Session or
// Pool with the same spec otherwise. The optimum is checked separately
// against FastDP by optimumOf.
func reference(s *spec, u *unit) (outcome, error) {
	switch {
	case u.pool:
		return poolReference(s, u)
	case s.policy == "sc" && len(s.shadows) == 0:
		res, err := datacache.Serve(datacache.SpeculativeCaching{}, u.seq, costModel)
		if err != nil {
			return outcome{}, err
		}
		opt, err := datacache.OptimalCost(u.seq, costModel)
		if err != nil {
			return outcome{}, err
		}
		return outcome{N: u.seq.N(), Hits: res.Stats.CacheHits, Transfers: res.Stats.Transfers,
			Cost: res.Stats.Cost, Optimal: opt}, nil
	default:
		shadows, err := datacache.WithShadowPolicies(s.shadows...)
		if err != nil {
			return outcome{}, err
		}
		sess, err := datacache.NewSession(numServers, 1, costModel,
			&datacache.SessionOptions{Policy: s.policy, ShadowPolicies: shadows})
		if err != nil {
			return outcome{}, err
		}
		for _, r := range u.seq.Requests {
			if _, err := sess.Serve(r.Server, r.Time); err != nil {
				return outcome{}, err
			}
		}
		if _, err := sess.Close(); err != nil {
			return outcome{}, err
		}
		return outcome{N: sess.N(), Hits: sess.Hits(), Transfers: sess.Transfers(),
			Cost: sess.Cost(), Optimal: sess.OptimalCost()}, nil
	}
}

func poolReference(s *spec, u *unit) (outcome, error) {
	p, err := datacache.NewPool(numServers, 1, costModel, &datacache.PoolOptions{
		Session:  datacache.SessionOptions{Policy: s.policy, ShadowMargin: -1},
		MaxItems: s.maxItems,
	})
	if err != nil {
		return outcome{}, err
	}
	var o outcome
	for i := 0; i < len(u.poolReqs); i += batchSize {
		res, err := p.ServeBatch(context.Background(), u.poolReqs[i:min(i+batchSize, len(u.poolReqs))])
		if err != nil {
			return outcome{}, err
		}
		if res.FirstRejected >= 0 {
			return outcome{}, fmt.Errorf("reference pool rejected request %d: %s", i+res.FirstRejected, res.RejectReason)
		}
		for _, d := range res.Decisions {
			if d.Hit {
				o.Hits++
			} else {
				o.Transfers++
			}
		}
	}
	if err := p.Close(); err != nil {
		return outcome{}, err
	}
	st := p.Stats()
	o.N, o.Evictions, o.Revivals, o.Cost, o.Optimal = st.N, st.Evictions, st.Revivals, st.Cost, st.Optimal
	return o, nil
}

// incarnation is the request sequence one pool engine instance served,
// from its lazy creation (or revival) to its eviction or the pool's
// close, with the batch call each request arrived in and its position
// in that batch.
type incarnation struct {
	seq   *datacache.Sequence
	calls []int
	subs  []int
}

// poolIncarnations replays the pool's documented LRU-over-last-served
// rule outside the program: batches group requests by key in order of
// first appearance, a key without live state is instantiated (evicting
// the least recently served live key once MaxItems are live), and every
// incarnation starts from a fresh engine at t = 0.
func poolIncarnations(u *unit, maxItems int) []incarnation {
	type live struct {
		inc  int
		elem *list.Element
	}
	var out []incarnation
	byKey := map[datacache.ItemKey]*live{}
	lru := list.New() // front: most recently served
	for b := 0; b*batchSize < len(u.poolReqs); b++ {
		batch := u.poolReqs[b*batchSize : min((b+1)*batchSize, len(u.poolReqs))]
		var order []datacache.ItemKey
		groups := map[datacache.ItemKey][]int{} // batch positions per key
		for i, r := range batch {
			k := datacache.ItemKey{Tenant: r.Tenant, Item: r.Item}
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], i)
		}
		for _, k := range order {
			for _, i := range groups[k] {
				r := batch[i]
				l := byKey[k]
				if l == nil {
					if maxItems > 0 && lru.Len() >= maxItems {
						old := lru.Remove(lru.Back()).(datacache.ItemKey)
						delete(byKey, old)
					}
					out = append(out, incarnation{seq: &datacache.Sequence{M: numServers, Origin: 1}})
					l = &live{inc: len(out) - 1, elem: lru.PushFront(k)}
					byKey[k] = l
				}
				in := &out[l.inc]
				in.seq.Requests = append(in.seq.Requests, datacache.Request{Server: r.Server, Time: r.Time})
				in.calls = append(in.calls, b)
				in.subs = append(in.subs, i)
				lru.MoveToFront(l.elem)
			}
		}
	}
	return out
}

// optimumOf is the unit's exact off-line optimum by FastDP: of the
// session's sequence, or summed over the pool's incarnations.
func optimumOf(s *spec, u *unit) (float64, error) {
	if !u.pool {
		return datacache.OptimalCost(u.seq, costModel)
	}
	total := 0.0
	for _, in := range poolIncarnations(u, s.maxItems) {
		c, err := datacache.OptimalCost(in.seq, costModel)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// expected is a unit's reference outcome plus its FastDP optimum.
// exactOpt marks references whose optimum comes from the same streaming
// DP the server runs, so the server must match it bit for bit.
type expected struct {
	outcome
	fastdp   float64
	exactOpt bool
}

// expectations computes every unit's reference outcome and cross-checks
// the reference optimum against FastDP.
func expectations(s *spec) ([]expected, error) {
	out := make([]expected, len(s.units))
	for i, u := range s.units {
		o, err := reference(s, u)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d reference: %w", s.name, i, err)
		}
		opt, err := optimumOf(s, u)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d optimum: %w", s.name, i, err)
		}
		if !closeTo(o.Optimal, opt) {
			return nil, fmt.Errorf("%s unit %d: reference optimum %v differs from FastDP %v", s.name, i, o.Optimal, opt)
		}
		out[i] = expected{outcome: o, fastdp: opt, exactOpt: u.pool || s.policy != "sc" || len(s.shadows) > 0}
	}
	return out, nil
}

// mismatch compares what the server reported for a unit with the
// reference. Counts and the policy cost must agree exactly; the optimum
// within 1e-9 relative of FastDP (the streaming DP sums in its own
// order), and exactly where the reference runs the same streaming DP.
func mismatch(got outcome, want expected) error {
	switch {
	case got.N != want.N:
		return fmt.Errorf("n %d, want %d", got.N, want.N)
	case got.Hits != want.Hits || got.Transfers != want.Transfers:
		return fmt.Errorf("hits/transfers %d/%d, want %d/%d", got.Hits, got.Transfers, want.Hits, want.Transfers)
	case got.Evictions != want.Evictions || got.Revivals != want.Revivals:
		return fmt.Errorf("evictions/revivals %d/%d, want %d/%d", got.Evictions, got.Revivals, want.Evictions, want.Revivals)
	case math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		return fmt.Errorf("cost %v, want %v", got.Cost, want.Cost)
	case want.exactOpt && math.Float64bits(got.Optimal) != math.Float64bits(want.Optimal):
		return fmt.Errorf("optimal %v, want %v", got.Optimal, want.Optimal)
	case !closeTo(got.Optimal, want.fastdp):
		return fmt.Errorf("optimal %v, FastDP %v", got.Optimal, want.fastdp)
	}
	return nil
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
