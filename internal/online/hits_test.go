package online

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"datacache/internal/model"
)

// countServedByTransferLinear is countServedByTransfer as first written,
// one scan over the transfers per request: the reference the one-pass
// count must agree with.
func countServedByTransferLinear(seq *model.Sequence, s *model.Schedule) int {
	n := 0
	for _, r := range seq.Requests {
		for _, tr := range s.Transfers {
			if tr.To == r.Server && tr.Time == r.Time {
				n++
				break
			}
		}
	}
	return n
}

// TestCountServedByTransferMatchesLinear compares the one-pass count with
// the linear reference on every policy's schedule over random sequences,
// as Run returns it and with its transfers shuffled and edited: moved to
// another request's time or server, or given a NaN time.
func TestCountServedByTransferMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	policies := []Runner{SpeculativeCaching{}, SpeculativeCaching{Window: 0.3}, AlwaysMigrate{}, KeepEverywhere{}, Oracle{}}
	for trial := 0; trial < 200; trial++ {
		seq := randomSequence(rng, 1+rng.Intn(5), rng.Intn(60), 1)
		for _, p := range policies {
			res, err := Run(p, seq, model.Unit)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Stats.CacheHits, seq.N()-countServedByTransferLinear(seq, res.Schedule); got != want {
				t.Fatalf("trial %d %s: CacheHits %d, reference %d", trial, p.Name(), got, want)
			}
			s := &model.Schedule{Transfers: slices.Clone(res.Schedule.Transfers)}
			rng.Shuffle(len(s.Transfers), func(i, j int) { s.Transfers[i], s.Transfers[j] = s.Transfers[j], s.Transfers[i] })
			for i := range s.Transfers {
				switch tr := &s.Transfers[i]; rng.Intn(6) {
				case 0:
					tr.Time = seq.Requests[rng.Intn(seq.N())].Time
				case 1:
					tr.To = model.ServerID(1 + rng.Intn(seq.M))
				case 2:
					tr.Time = math.NaN()
				}
			}
			if got, want := countServedByTransfer(seq, s), countServedByTransferLinear(seq, s); got != want {
				t.Fatalf("trial %d %s: edited transfers count %d, reference %d", trial, p.Name(), got, want)
			}
		}
	}
}
