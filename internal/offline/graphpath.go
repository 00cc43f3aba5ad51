package offline

import (
	"math"

	"datacache/internal/model"
)

// GraphSingleCopy solves the migration-only problem as a literal shortest
// path over the space-time graph of Definition 2: the lone copy walks cache
// edges rightwards and transfer edges within request columns, must pass
// through (or pay a round-trip excursion to) every request vertex, and the
// answer is the cheapest such walk.
//
// With exactly one copy the "tree-like schedule" of the general problem
// degenerates to a path, and because the graph is layered by columns the
// shortest path falls out of a left-to-right relaxation over the graph's
// own edge lists (no priority queue needed). Serving a request from a copy
// parked elsewhere is the excursion case: a transfer edge into the request
// vertex whose delivered copy is dropped immediately — weight λ with the
// walker staying put. That is exactly the transition structure of
// SingleCopyOptimal, and the two must agree on every instance; the property
// test asserts it, tying the DP formulation to the paper's graph view.
func GraphSingleCopy(seq *model.Sequence, cm model.CostModel) (float64, error) {
	if err := seq.Validate(); err != nil {
		return 0, err
	}
	if err := cm.Validate(); err != nil {
		return 0, err
	}
	g := model.BuildSpaceTimeGraph(seq, cm)
	n := seq.N()
	if n == 0 {
		return 0, nil
	}
	m := seq.M
	// dist[j] = cheapest cost with the copy on server j right after the
	// current column's request has been served.
	dist := make([]float64, m+1)
	next := make([]float64, m+1)
	for j := range dist {
		dist[j] = math.Inf(1)
	}
	dist[seq.Origin] = 0

	for col := 1; col <= n; col++ {
		// Cache edges: every surviving position pays the same hold cost to
		// advance one column (weights are uniform per column by Def. 2).
		hold := g.CacheEdges[(col-1)*m].Weight
		reqRow := g.Reqs[col]
		for j := 1; j <= m; j++ {
			next[j] = math.Inf(1)
		}
		// Within the column, the star of transfer edges allows: stay and
		// serve locally (j == reqRow), serve by excursion (delivered copy
		// dropped), or migrate along the transfer edge into the request
		// vertex. A post-serve hop OUT of the request vertex is never
		// useful under homogeneous weights (it only adds λ compared to
		// hopping later), so two relaxations suffice.
		for j := 1; j <= m; j++ {
			if math.IsInf(dist[j], 1) {
				continue
			}
			base := dist[j] + hold
			if j == reqRow {
				relaxMin(next, j, base) // local serve
				continue
			}
			relaxMin(next, j, base+cm.Lambda)      // excursion: copy stays on j
			relaxMin(next, reqRow, base+cm.Lambda) // migration into the request vertex
		}
		dist, next = next, dist
	}
	best := math.Inf(1)
	for j := 1; j <= m; j++ {
		if dist[j] < best {
			best = dist[j]
		}
	}
	return best, nil
}

func relaxMin(d []float64, j int, v float64) {
	if v < d[j] {
		d[j] = v
	}
}
