package offline

import (
	"math/rand"
	"testing"

	"datacache/internal/model"
)

func TestGraphSingleCopyMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	for trial := 0; trial < 300; trial++ {
		seq, cm := randomInstance(rng, 6, 20)
		viaGraph, err := GraphSingleCopy(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		viaDP, err := SingleCopyOptimal(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(viaGraph, viaDP) {
			t.Fatalf("trial %d: graph %v != DP %v\nseq=%+v cm=%+v",
				trial, viaGraph, viaDP, seq, cm)
		}
	}
}

func TestGraphSingleCopyHandInstance(t *testing.T) {
	// Park at s1, one-shot excursions to s2's requests: 1.0 + 5λ = 6
	// (same fixture as TestSingleCopyExactOnHandInstance).
	cm := model.Unit
	seq := &model.Sequence{M: 2, Origin: 1}
	for i := 0; i < 10; i++ {
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + i%2), Time: 0.1 + float64(i)*0.1,
		})
	}
	got, err := GraphSingleCopy(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, 6) {
		t.Errorf("graph single-copy = %v, want 6", got)
	}
}

func TestGraphSingleCopyEdgeCases(t *testing.T) {
	if _, err := GraphSingleCopy(&model.Sequence{M: 0}, model.Unit); err == nil {
		t.Error("invalid sequence accepted")
	}
	empty := &model.Sequence{M: 2, Origin: 1}
	got, err := GraphSingleCopy(empty, model.Unit)
	if err != nil || got != 0 {
		t.Errorf("empty = (%v, %v)", got, err)
	}
	if _, err := GraphSingleCopy(empty, model.CostModel{}); err == nil {
		t.Error("invalid cost model accepted")
	}
}

func TestGraphAllRequestsReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(197))
	for trial := 0; trial < 50; trial++ {
		seq, cm := randomInstance(rng, 5, 15)
		reach, err := GraphAllRequestsReachable(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		if reach != seq.N() {
			t.Fatalf("trial %d: %d of %d request vertices reachable", trial, reach, seq.N())
		}
	}
}

// GraphAllRequestsReachable is a structural sanity check on the space-time
// graph: from the origin vertex, every request vertex is reachable through
// cache and transfer edges. It returns the number of reachable request
// vertices; TestGraphAllRequestsReachable asserts it equals n.
func GraphAllRequestsReachable(seq *model.Sequence, cm model.CostModel) (int, error) {
	if err := seq.Validate(); err != nil {
		return 0, err
	}
	g := model.BuildSpaceTimeGraph(seq, cm)
	reach := 0
	// In a fully connected star per column with rightward cache edges,
	// reachability is trivial — every column is reachable — but the check
	// walks the actual edge lists so that graph construction bugs surface.
	type vertex struct{ row, col int }
	adj := map[vertex][]vertex{}
	for _, e := range g.CacheEdges {
		adj[vertex{e.FromRow, e.FromCol}] = append(adj[vertex{e.FromRow, e.FromCol}], vertex{e.ToRow, e.ToCol})
	}
	for _, e := range g.TransferEdges {
		adj[vertex{e.FromRow, e.FromCol}] = append(adj[vertex{e.FromRow, e.FromCol}], vertex{e.ToRow, e.ToCol})
	}
	seen := map[vertex]bool{}
	stack := []vertex{{int(seq.Origin), 0}}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		stack = append(stack, adj[v]...)
	}
	for i := 1; i <= seq.N(); i++ {
		if seen[vertex{g.Reqs[i], i}] {
			reach++
		}
	}
	return reach, nil
}
