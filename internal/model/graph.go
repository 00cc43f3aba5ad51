package model

// SpaceTimeGraph is the weighted directed graph of Definition 2. Vertices
// v_{j,i} correspond to time t_i on server s^j (row 0 is the external
// storage row of the definition, kept for fidelity but unused by the
// homogeneous-cost algorithms). Cache edges run horizontally between
// consecutive columns on one server and weigh Mu*(t_i - t_{i-1}); transfer
// edges run vertically within a column between the request vertex and every
// other server, weighing Lambda each way.
//
// The graph is an analysis artifact: schedules are subgraphs of it, and the
// standard form of Observation 1 says some optimal schedule only uses
// transfer edges that end on request vertices. The graph is used by tests and
// documentation, not by the O(mn) algorithm itself.
type SpaceTimeGraph struct {
	M     int       // servers (rows 1..M; row 0 is external storage)
	Times []float64 // column times: t_0 = 0 followed by t_1..t_n
	Reqs  []int     // Reqs[i] = server of the request in column i (0 for column 0 holds the origin)

	CacheEdges    []GraphEdge
	TransferEdges []GraphEdge
}

// GraphEdge is one weighted directed edge of the space-time graph.
type GraphEdge struct {
	FromRow, FromCol int
	ToRow, ToCol     int
	Weight           float64
}

// BuildSpaceTimeGraph materializes the graph for an instance. Column 0 is
// the boundary request r_0 at the origin; column i>=1 is request r_i.
func BuildSpaceTimeGraph(seq *Sequence, cm CostModel) *SpaceTimeGraph {
	n := seq.N()
	g := &SpaceTimeGraph{M: seq.M}
	g.Times = make([]float64, n+1)
	g.Reqs = make([]int, n+1)
	g.Reqs[0] = int(seq.Origin)
	for i := 1; i <= n; i++ {
		g.Times[i] = seq.Requests[i-1].Time
		g.Reqs[i] = int(seq.Requests[i-1].Server)
	}
	// Cache edges: (v_{j,i-1} -> v_{j,i}) for every server row.
	for i := 1; i <= n; i++ {
		w := cm.Mu * (g.Times[i] - g.Times[i-1])
		for j := 1; j <= seq.M; j++ {
			g.CacheEdges = append(g.CacheEdges, GraphEdge{FromRow: j, FromCol: i - 1, ToRow: j, ToCol: i, Weight: w})
		}
	}
	// Transfer edges: within column i, between the request vertex and every
	// other server row, both directions (the biconnected star of Def. 2).
	for i := 1; i <= n; i++ {
		rj := g.Reqs[i]
		for j := 1; j <= seq.M; j++ {
			if j == rj {
				continue
			}
			g.TransferEdges = append(g.TransferEdges,
				GraphEdge{FromRow: j, FromCol: i, ToRow: rj, ToCol: i, Weight: cm.Lambda},
				GraphEdge{FromRow: rj, FromCol: i, ToRow: j, ToCol: i, Weight: cm.Lambda})
		}
	}
	return g
}
