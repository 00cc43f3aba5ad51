// Package workload synthesizes request sequences for the experiments. Each
// generator is deterministic given a seed, produces strictly increasing
// request times, and models one of the access patterns the paper's
// evaluation story needs: uniform and Zipf-popularity traffic, Poisson and
// bursty arrivals, sticky Markov hopping (spatial-temporal locality), a
// periodic commuter route, the fully predictable cycle trajectory the
// hybrid planner's predictor learns exactly, and the adversarial anti-SC
// pattern used to pressure the competitive bound.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"datacache/internal/model"
)

// Generator produces request sequences of a requested length.
type Generator interface {
	// Name identifies the workload family in reports.
	Name() string
	// Generate draws an n-request sequence using rng.
	Generate(rng *rand.Rand, n int) *model.Sequence
}

// minGap keeps request times strictly increasing even when a sampled
// inter-arrival rounds to zero.
const minGap = 1e-6

// Uniform is memoryless traffic: exponential inter-arrivals with the given
// mean, each request on a uniformly random server.
type Uniform struct {
	M       int     // number of servers
	MeanGap float64 // mean inter-arrival time
}

// Name implements Generator.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(m=%d)", u.M) }

// Generate implements Generator.
func (u Uniform) Generate(rng *rand.Rand, n int) *model.Sequence {
	seq := &model.Sequence{M: u.M, Origin: 1}
	t := 0.0
	for i := 0; i < n; i++ {
		t += expGap(rng, u.MeanGap)
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + rng.Intn(u.M)),
			Time:   t,
		})
	}
	return seq
}

// Zipf skews server popularity with a Zipf(s) law over the m servers, the
// classic model for hot-spot data services. Arrival gaps are exponential.
type Zipf struct {
	M       int
	S       float64 // Zipf exponent, > 1
	MeanGap float64
}

// Name implements Generator.
func (z Zipf) Name() string { return fmt.Sprintf("zipf(m=%d,s=%.2g)", z.M, z.S) }

// Generate implements Generator.
func (z Zipf) Generate(rng *rand.Rand, n int) *model.Sequence {
	s := z.S
	if s <= 1 {
		s = 1.1
	}
	zf := rand.NewZipf(rng, s, 1, uint64(z.M-1))
	seq := &model.Sequence{M: z.M, Origin: 1}
	t := 0.0
	for i := 0; i < n; i++ {
		t += expGap(rng, z.MeanGap)
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + zf.Uint64()),
			Time:   t,
		})
	}
	return seq
}

// Bursty issues tight same-server bursts separated by long idle gaps —
// the pattern where speculative caching pays off most.
type Bursty struct {
	M          int
	BurstLen   int     // requests per burst
	WithinGap  float64 // mean gap inside a burst
	BetweenGap float64 // mean gap between bursts
}

// Name implements Generator.
func (b Bursty) Name() string { return fmt.Sprintf("bursty(m=%d,len=%d)", b.M, b.BurstLen) }

// Generate implements Generator.
func (b Bursty) Generate(rng *rand.Rand, n int) *model.Sequence {
	seq := &model.Sequence{M: b.M, Origin: 1}
	t := 0.0
	for len(seq.Requests) < n {
		sv := model.ServerID(1 + rng.Intn(b.M))
		for k := 0; k < b.BurstLen && len(seq.Requests) < n; k++ {
			t += expGap(rng, b.WithinGap)
			seq.Requests = append(seq.Requests, model.Request{Server: sv, Time: t})
		}
		t += expGap(rng, b.BetweenGap)
	}
	return seq
}

// MarkovHop is sticky traffic: each request stays on the previous server
// with probability Stay, else hops to a uniformly random other server. It
// is the simplest tunable-locality model of the paper's spatial-temporal
// trajectory patterns.
type MarkovHop struct {
	M       int
	Stay    float64 // probability of staying, in [0,1)
	MeanGap float64
}

// Name implements Generator.
func (mk MarkovHop) Name() string { return fmt.Sprintf("markov(m=%d,p=%.2g)", mk.M, mk.Stay) }

// Generate implements Generator.
func (mk MarkovHop) Generate(rng *rand.Rand, n int) *model.Sequence {
	seq := &model.Sequence{M: mk.M, Origin: 1}
	cur := model.ServerID(1 + rng.Intn(mk.M))
	t := 0.0
	for i := 0; i < n; i++ {
		t += expGap(rng, mk.MeanGap)
		if rng.Float64() >= mk.Stay && mk.M > 1 {
			hop := 1 + rng.Intn(mk.M-1)
			cur = model.ServerID(1 + (int(cur-1)+hop)%mk.M)
		}
		seq.Requests = append(seq.Requests, model.Request{Server: cur, Time: t})
	}
	return seq
}

// Commuter cycles deterministically through a route of servers (home, work,
// gym, ...), issuing a cluster of requests at each stop — the mobile-user
// pattern the paper's introduction motivates with trajectory mining.
type Commuter struct {
	Route     []model.ServerID // visited in order, repeated
	M         int
	StopLen   int     // requests per stop
	StopGap   float64 // mean gap within a stop
	TravelGap float64 // gap between stops
}

// Name implements Generator.
func (c Commuter) Name() string { return fmt.Sprintf("commuter(m=%d,route=%d)", c.M, len(c.Route)) }

// Generate implements Generator.
func (c Commuter) Generate(rng *rand.Rand, n int) *model.Sequence {
	seq := &model.Sequence{M: c.M, Origin: 1}
	t := 0.0
	stop := 0
	for len(seq.Requests) < n {
		sv := c.Route[stop%len(c.Route)]
		stop++
		for k := 0; k < c.StopLen && len(seq.Requests) < n; k++ {
			t += expGap(rng, c.StopGap)
			seq.Requests = append(seq.Requests, model.Request{Server: sv, Time: t})
		}
		t += c.TravelGap + expGap(rng, c.StopGap)
	}
	return seq
}

// Cycle is the fully predictable trajectory: requests walk the servers
// 1..M in order with a fixed gap — zero entropy, so an order-k Markov
// predictor learns it exactly after one lap. It is the hybrid planner's
// best case (the opposite pole from Adversarial): drive it to watch
// dc_planner_predicted_hit_ratio approach 1.
type Cycle struct {
	M   int
	Gap float64 // fixed inter-arrival gap (default 1)
}

// Name implements Generator.
func (c Cycle) Name() string { return fmt.Sprintf("cycle(m=%d,gap=%g)", c.M, c.Gap) }

// Generate implements Generator. The rng is unused: the trace is fully
// deterministic by construction.
func (c Cycle) Generate(rng *rand.Rand, n int) *model.Sequence {
	gap := c.Gap
	if gap <= 0 {
		gap = 1
	}
	seq := &model.Sequence{M: c.M, Origin: 1}
	for i := 0; i < n; i++ {
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + i%c.M),
			Time:   float64(i+1) * gap,
		})
	}
	return seq
}

// Adversarial alternates between two servers with gaps just past the
// speculative window Δt = λ/μ, so every SC copy expires moments before it
// would have been useful. This is the pressure pattern of experiment E6.
type Adversarial struct {
	M      int
	Window float64 // the victim's speculative window Δt
	Slack  float64 // fractional overshoot past the window (default 1%)
}

// Name implements Generator.
func (a Adversarial) Name() string { return fmt.Sprintf("adversarial(Δt=%.2g)", a.Window) }

// Generate implements Generator.
func (a Adversarial) Generate(rng *rand.Rand, n int) *model.Sequence {
	slack := a.Slack
	if slack <= 0 {
		slack = 0.01
	}
	seq := &model.Sequence{M: maxInt(a.M, 2), Origin: 1}
	t := 0.0
	for i := 0; i < n; i++ {
		t += a.Window * (1 + slack)
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + i%2),
			Time:   t,
		})
	}
	return seq
}

// MultiUser interleaves several independent sticky users, each with its own
// home region, into one request stream. This is the regime the cloud data
// service actually faces — concurrent locality at several servers at once —
// and the one where multi-copy caching fundamentally beats a single nomadic
// copy (a lone copy cannot be in two homes at once).
type MultiUser struct {
	M       int
	Users   int     // concurrent users (>= 1)
	Stay    float64 // per-user stickiness
	MeanGap float64 // per-user mean inter-arrival
}

// Name implements Generator.
func (mu MultiUser) Name() string { return fmt.Sprintf("multiuser(m=%d,u=%d)", mu.M, mu.Users) }

// Generate implements Generator: each user walks its own MarkovHop chain
// anchored at a distinct home server; the streams are merged in time order
// with per-user jitter keeping timestamps unique.
func (mu MultiUser) Generate(rng *rand.Rand, n int) *model.Sequence {
	users := mu.Users
	if users < 1 {
		users = 1
	}
	seq := &model.Sequence{M: mu.M, Origin: 1}
	type cursor struct {
		at  model.ServerID
		t   float64
		jit float64
	}
	curs := make([]cursor, users)
	for u := range curs {
		curs[u] = cursor{
			at:  model.ServerID(1 + (u*maxInt(1, mu.M/users))%mu.M),
			t:   0,
			jit: float64(u+1) * 1e-9,
		}
	}
	for i := 0; i < n; i++ {
		// Advance the user whose next arrival is earliest; draw lazily.
		u := i % users
		c := &curs[u]
		c.t += expGap(rng, mu.MeanGap*float64(users))
		if rng.Float64() >= mu.Stay && mu.M > 1 {
			hop := 1 + rng.Intn(mu.M-1)
			c.at = model.ServerID(1 + (int(c.at-1)+hop)%mu.M)
		}
		seq.Requests = append(seq.Requests, model.Request{Server: c.at, Time: c.t + c.jit})
	}
	model.SortRequests(seq.Requests)
	return seq
}

// expGap samples an exponential inter-arrival with the given mean, floored
// to keep times strictly increasing.
func expGap(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return minGap
	}
	return math.Max(minGap, rng.ExpFloat64()*mean)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Standard returns the workload suite used by the ratio and policy
// experiments: one representative of each family, sized for the given
// server count and speculative window.
func Standard(m int, window float64) []Generator {
	return []Generator{
		Uniform{M: m, MeanGap: window},
		Zipf{M: m, S: 1.5, MeanGap: window},
		Bursty{M: m, BurstLen: 8, WithinGap: window / 4, BetweenGap: window * 6},
		MarkovHop{M: m, Stay: 0.8, MeanGap: window / 2},
		Commuter{M: m, Route: commuterRoute(m), StopLen: 6, StopGap: window / 4, TravelGap: window * 4},
		MultiUser{M: m, Users: min(3, m), Stay: 0.85, MeanGap: window / 2},
		Adversarial{M: m, Window: window},
	}
}

// commuterRoute builds a default 3-stop route inside 1..m.
func commuterRoute(m int) []model.ServerID {
	route := []model.ServerID{1, 2, 1, 3}
	for i := range route {
		if int(route[i]) > m {
			route[i] = model.ServerID(m)
		}
	}
	return route
}
