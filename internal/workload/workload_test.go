package workload

import (
	"math"
	"math/rand"
	"testing"

	"datacache/internal/model"
)

func testGenerators() []Generator {
	gens := Standard(6, 1.0)
	gens = append(gens,
		Uniform{M: 1, MeanGap: 0.5},
		Zipf{M: 3, S: 0.5, MeanGap: 1}, // exponent below 1 must be clamped
		Bursty{M: 2, BurstLen: 1, WithinGap: 0.1, BetweenGap: 2},
		MarkovHop{M: 1, Stay: 0, MeanGap: 1},
		Adversarial{M: 0, Window: 2}, // m floored to 2
		Cycle{M: 4, Gap: 0.5},
		Cycle{M: 3}, // gap defaulted to 1
	)
	return gens
}

func TestAllGeneratorsProduceValidSequences(t *testing.T) {
	for _, g := range testGenerators() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for _, n := range []int{0, 1, 7, 200} {
				seq := g.Generate(rng, n)
				if seq.N() != n {
					t.Fatalf("n = %d, want %d", seq.N(), n)
				}
				if err := seq.Validate(); err != nil {
					t.Fatalf("invalid sequence: %v", err)
				}
			}
		})
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, g := range testGenerators() {
		a := g.Generate(rand.New(rand.NewSource(42)), 50)
		b := g.Generate(rand.New(rand.NewSource(42)), 50)
		if len(a.Requests) != len(b.Requests) {
			t.Fatalf("%s: lengths differ", g.Name())
		}
		for i := range a.Requests {
			if a.Requests[i] != b.Requests[i] {
				t.Fatalf("%s: request %d differs between identical seeds", g.Name(), i)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := Zipf{M: 16, S: 2.0, MeanGap: 1}.Generate(rng, 5000)
	counts := make([]int, 17)
	for _, r := range seq.Requests {
		counts[r.Server]++
	}
	if counts[1] < 5*counts[8] {
		t.Errorf("expected strong skew: server1=%d server8=%d", counts[1], counts[8])
	}
}

func TestUniformCoversServers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := Uniform{M: 5, MeanGap: 1}.Generate(rng, 2000)
	seen := map[model.ServerID]int{}
	for _, r := range seq.Requests {
		seen[r.Server]++
	}
	for j := model.ServerID(1); j <= 5; j++ {
		if seen[j] < 200 {
			t.Errorf("server %d underrepresented: %d of 2000", j, seen[j])
		}
	}
}

func TestMarkovHopStickiness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := MarkovHop{M: 8, Stay: 0.9, MeanGap: 1}.Generate(rng, 3000)
	stays := 0
	for i := 1; i < len(seq.Requests); i++ {
		if seq.Requests[i].Server == seq.Requests[i-1].Server {
			stays++
		}
	}
	frac := float64(stays) / float64(len(seq.Requests)-1)
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("stay fraction = %v, want ≈0.9", frac)
	}
}

func TestBurstyStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seq := Bursty{M: 4, BurstLen: 5, WithinGap: 0.01, BetweenGap: 10}.Generate(rng, 100)
	// Requests 0..4 share a server, 5..9 share a server, etc.
	for b := 0; b+5 <= 100; b += 5 {
		sv := seq.Requests[b].Server
		for k := 1; k < 5; k++ {
			if seq.Requests[b+k].Server != sv {
				t.Fatalf("burst at %d not on one server", b)
			}
		}
	}
}

func TestCommuterFollowsRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	route := []model.ServerID{2, 3, 2, 1}
	seq := Commuter{Route: route, M: 3, StopLen: 4, StopGap: 0.01, TravelGap: 5}.Generate(rng, 32)
	for stop := 0; stop < 8; stop++ {
		want := route[stop%len(route)]
		for k := 0; k < 4; k++ {
			if got := seq.Requests[stop*4+k].Server; got != want {
				t.Fatalf("stop %d request %d on s%d, want s%d", stop, k, got, want)
			}
		}
	}
}

func TestAdversarialSpacing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	seq := Adversarial{M: 2, Window: 2, Slack: 0.05}.Generate(rng, 50)
	for i := 1; i < len(seq.Requests); i++ {
		gap := seq.Requests[i].Time - seq.Requests[i-1].Time
		if math.Abs(gap-2.1) > 1e-9 {
			t.Fatalf("gap %v, want 2.1 (window + 5%% slack)", gap)
		}
		if seq.Requests[i].Server == seq.Requests[i-1].Server {
			t.Fatalf("consecutive requests on the same server at %d", i)
		}
	}
}

func TestAdversarialDefaultSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	seq := Adversarial{M: 2, Window: 1}.Generate(rng, 3)
	if gap := seq.Requests[1].Time - seq.Requests[0].Time; math.Abs(gap-1.01) > 1e-9 {
		t.Errorf("default slack gap = %v, want 1.01", gap)
	}
}

func TestExpGapFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	if g := expGap(rng, 0); g != minGap {
		t.Errorf("zero mean gap = %v, want the floor %v", g, minGap)
	}
	for i := 0; i < 1000; i++ {
		if g := expGap(rng, 1e-12); g < minGap {
			t.Fatalf("gap %v below floor", g)
		}
	}
}

func TestMultiUserInterleavesHomes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seq := MultiUser{M: 6, Users: 3, Stay: 0.95, MeanGap: 0.3}.Generate(rng, 3000)
	if err := seq.Validate(); err != nil {
		t.Fatal(err)
	}
	// With three very sticky users the *merged* stream must NOT look
	// sticky: consecutive requests usually belong to different users.
	stays := 0
	for i := 1; i < seq.N(); i++ {
		if seq.Requests[i].Server == seq.Requests[i-1].Server {
			stays++
		}
	}
	if frac := float64(stays) / float64(seq.N()-1); frac > 0.6 {
		t.Errorf("merged stay fraction %v too high; users not interleaving", frac)
	}
	// Several servers carry substantial traffic simultaneously.
	counts := map[model.ServerID]int{}
	for _, r := range seq.Requests {
		counts[r.Server]++
	}
	busy := 0
	for _, c := range counts {
		if c > 300 {
			busy++
		}
	}
	if busy < 3 {
		t.Errorf("only %d busy home regions, want >= 3", busy)
	}
}

func TestMultiUserUsersClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	seq := MultiUser{M: 3, Users: 0, Stay: 0.5, MeanGap: 1}.Generate(rng, 20)
	if err := seq.Validate(); err != nil {
		t.Fatal(err)
	}
	if seq.N() != 20 {
		t.Fatalf("n = %d", seq.N())
	}
}

func TestStandardSuite(t *testing.T) {
	gens := Standard(4, 1.5)
	if len(gens) != 7 {
		t.Fatalf("suite size = %d, want 7", len(gens))
	}
	names := map[string]bool{}
	rng := rand.New(rand.NewSource(23))
	for _, g := range gens {
		if names[g.Name()] {
			t.Errorf("duplicate generator name %q", g.Name())
		}
		names[g.Name()] = true
		seq := g.Generate(rng, 30)
		if err := seq.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
		if seq.M < 2 {
			t.Errorf("%s: m = %d", g.Name(), seq.M)
		}
	}
}

func TestCommuterRouteClamped(t *testing.T) {
	for _, g := range Standard(2, 1) {
		seq := g.Generate(rand.New(rand.NewSource(25)), 40)
		if err := seq.Validate(); err != nil {
			t.Fatalf("%s with m=2: %v", g.Name(), err)
		}
	}
}

// TestCycleIsFullyPredictable pins the property the hybrid planner's
// smoke test relies on: the cycle trace is deterministic (seed-free) and
// every request is the successor of the previous one modulo M.
func TestCycleIsFullyPredictable(t *testing.T) {
	seq := Cycle{M: 5, Gap: 2}.Generate(rand.New(rand.NewSource(1)), 100)
	for i, r := range seq.Requests {
		want := model.ServerID(1 + i%5)
		if r.Server != want || r.Time != float64(i+1)*2 {
			t.Fatalf("request %d = %+v, want server %d at t=%g", i, r, want, float64(i+1)*2)
		}
	}
}
