package datacache_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datacache"
	"datacache/internal/offline"
	"datacache/internal/workload"
)

// nearDeadlineSequence builds a stream whose arrivals mostly land on a
// server at most 1e-9 after the deadline its previous request set (last
// touch + w): the copy has just been dropped, and the transfer that brings
// it back starts an interval Normalize merges into the one that ended.
func nearDeadlineSequence(rng *rand.Rand, m, n int, w float64) *datacache.Sequence {
	seq := &datacache.Sequence{M: m, Origin: 1}
	last := make([]float64, m+1)
	t := 0.0
	for len(seq.Requests) < n {
		srv := 1 + rng.Intn(m)
		next := t + rng.Float64()*w
		if d := last[srv] + w + rng.Float64()*1e-9; last[srv] > 0 && d > t && rng.Intn(4) > 0 {
			next = d
		}
		if next <= t {
			continue
		}
		t, last[srv] = next, next
		seq.Requests = append(seq.Requests, datacache.Request{Server: datacache.ServerID(srv), Time: t})
	}
	return seq
}

// TestCostMatchesSchedulePricing pins the stream ledger to the one cost
// order: for every policy kind, Session.Cost — an O(M) ledger read — must
// equal the Cost of the session's own normalized schedule bit for bit,
// after every request and after Close. The workloads are the paper's
// Fig. 6 instance, random streams under dyadic and non-dyadic cost
// models, the adversarial alternation AdversarySearch probes (at the
// sweep's slacks and at one that lands every arrival within 1e-9 of the
// deadline), and random streams that re-request servers within 1e-9
// after their copies' deadlines.
func TestCostMatchesSchedulePricing(t *testing.T) {
	type stream struct {
		name string
		seq  *datacache.Sequence
		cm   datacache.CostModel
	}
	fig6, fig6cm := offline.Fig6Instance()
	dyadic := datacache.CostModel{Mu: 1, Lambda: 2}
	odd := datacache.CostModel{Mu: 0.7, Lambda: 1.3}
	streamsFor := func(window func(datacache.CostModel) float64) []stream {
		out := []stream{{"fig6", fig6, fig6cm}}
		for seed := int64(1); seed <= 3; seed++ {
			for _, cm := range []datacache.CostModel{dyadic, odd} {
				rng := rand.New(rand.NewSource(seed))
				out = append(out,
					stream{fmt.Sprintf("random/seed=%d/mu=%g", seed, cm.Mu), randomSequence(rng, 5, 150), cm},
					stream{fmt.Sprintf("near-deadline/seed=%d/mu=%g", seed, cm.Mu), nearDeadlineSequence(rng, 4, 150, window(cm)), cm})
			}
		}
		for _, slack := range []float64{0.005, 0.1, 1, 2e-10} {
			for _, m := range []int{2, 3} {
				gen := workload.Adversarial{M: m, Window: odd.Delta(), Slack: slack}
				out = append(out, stream{fmt.Sprintf("%s/m=%d/slack=%g", gen.Name(), m, slack),
					gen.Generate(rand.New(rand.NewSource(1)), 150), odd})
			}
		}
		return out
	}
	delta := func(cm datacache.CostModel) float64 { return cm.Delta() }
	specs := []struct {
		spec   string
		window func(datacache.CostModel) float64 // the deadlines near-deadline streams aim at
	}{
		{"sc", delta},
		{"sc:epoch=3", delta},
		{"ttl:window=0.7", func(datacache.CostModel) float64 { return 0.7 }},
		{"adaptive", delta},
		{"migrate", delta},
		{"replicate", delta},
		{"hybrid:horizon=8,order=2", delta},
	}
	for _, sp := range specs {
		t.Run(sp.spec, func(t *testing.T) {
			for _, st := range streamsFor(sp.window) {
				sess, err := datacache.NewSession(st.seq.M, st.seq.Origin, st.cm, &datacache.SessionOptions{Policy: sp.spec})
				if err != nil {
					t.Fatal(err)
				}
				check := func(at string, sched *datacache.Schedule) {
					t.Helper()
					if got, want := sess.Cost(), sched.Cost(st.cm); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s: Session.Cost %v != schedule cost %v", st.name, at, got, want)
					}
				}
				for i, r := range st.seq.Requests {
					if _, err := sess.Serve(r.Server, r.Time); err != nil {
						t.Fatalf("%s request %d: %v", st.name, i+1, err)
					}
					check(fmt.Sprintf("after request %d", i+1), sess.Schedule())
				}
				final, err := sess.Close()
				if err != nil {
					t.Fatal(err)
				}
				check("after Close", final)
				check("after Close (Schedule)", sess.Schedule())
			}
		})
	}
}
