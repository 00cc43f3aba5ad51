// Package trajectory models the mobile users whose movement patterns
// motivate the paper's off-line setting: users move across a field covered
// by base stations (the cache servers), their requests land on the nearest
// station, and — because human mobility is highly predictable (the paper's
// "93%" citation of Song et al.) — a simple Markov predictor recovers most
// of the future request sequence from history.
//
// The package provides two mobility models (random waypoint over a 2D field
// and Markov cell-hopping), an order-k Markov location predictor, and the
// plan-and-execute pipeline of experiment E8: optimize the predicted
// sequence off-line with FastDP, then replay the plan against the true
// sequence, paying a fallback transfer for every misprediction.
package trajectory

import (
	"fmt"
	"math"
	"math/rand"

	"datacache/internal/model"
	"datacache/internal/offline"
)

// Station is a base station (cache server) position on the unit field.
type Station struct {
	ID   model.ServerID
	X, Y float64
}

// Field is a square region covered by stations; users attach to the nearest
// station.
type Field struct {
	Size     float64
	Stations []Station
}

// GridField places m stations on a near-square grid over a size x size
// field, the standard cellular layout.
func GridField(m int, size float64) *Field {
	cols := int(math.Ceil(math.Sqrt(float64(m))))
	rows := (m + cols - 1) / cols
	f := &Field{Size: size}
	for i := 0; i < m; i++ {
		r, c := i/cols, i%cols
		f.Stations = append(f.Stations, Station{
			ID: model.ServerID(i + 1),
			X:  (float64(c) + 0.5) * size / float64(cols),
			Y:  (float64(r) + 0.5) * size / float64(rows),
		})
	}
	return f
}

// Nearest returns the station closest to (x, y).
func (f *Field) Nearest(x, y float64) model.ServerID {
	best, bestD := model.ServerID(0), math.Inf(1)
	for _, s := range f.Stations {
		d := (s.X-x)*(s.X-x) + (s.Y-y)*(s.Y-y)
		if d < bestD {
			best, bestD = s.ID, d
		}
	}
	return best
}

// RandomWaypoint simulates the classic mobility model: pick a uniform
// waypoint, travel towards it at Speed, pause, repeat. Requests are issued
// with exponential inter-arrivals of mean ReqGap and land on the nearest
// station.
type RandomWaypoint struct {
	Field  *Field
	Speed  float64 // distance per unit time
	Pause  float64 // mean pause at each waypoint
	ReqGap float64 // mean time between requests
}

// Generate walks the model until n requests have been issued.
func (w RandomWaypoint) Generate(rng *rand.Rand, n int) *model.Sequence {
	seq := &model.Sequence{M: len(w.Field.Stations), Origin: 1}
	x, y := w.Field.Size*rng.Float64(), w.Field.Size*rng.Float64()
	wx, wy := w.Field.Size*rng.Float64(), w.Field.Size*rng.Float64()
	pause := 0.0
	t := 0.0
	for len(seq.Requests) < n {
		dt := math.Max(1e-6, rng.ExpFloat64()*w.ReqGap)
		t += dt
		// Advance the walker by dt.
		remaining := dt
		for remaining > 0 {
			if pause > 0 {
				use := math.Min(pause, remaining)
				pause -= use
				remaining -= use
				continue
			}
			dx, dy := wx-x, wy-y
			dist := math.Hypot(dx, dy)
			if dist < 1e-9 {
				wx, wy = w.Field.Size*rng.Float64(), w.Field.Size*rng.Float64()
				pause = rng.ExpFloat64() * w.Pause
				continue
			}
			step := w.Speed * remaining
			if step >= dist {
				x, y = wx, wy
				remaining -= dist / w.Speed
			} else {
				x += dx / dist * step
				y += dy / dist * step
				remaining = 0
			}
		}
		seq.Requests = append(seq.Requests, model.Request{Server: w.Field.Nearest(x, y), Time: t})
	}
	return seq
}

// MarkovCells hops between stations with a sticky transition kernel:
// stay with probability Stay, else move to one of the spatially nearest
// Neighbors stations. High stickiness yields the highly predictable
// trajectories the paper's motivation relies on.
type MarkovCells struct {
	Field     *Field
	Stay      float64
	Neighbors int
	ReqGap    float64
}

// Generate implements the hop process.
func (mc MarkovCells) Generate(rng *rand.Rand, n int) *model.Sequence {
	m := len(mc.Field.Stations)
	seq := &model.Sequence{M: m, Origin: 1}
	neigh := mc.neighborTable()
	cur := rng.Intn(m)
	t := 0.0
	for i := 0; i < n; i++ {
		t += math.Max(1e-6, rng.ExpFloat64()*mc.ReqGap)
		if rng.Float64() >= mc.Stay {
			opts := neigh[cur]
			cur = opts[rng.Intn(len(opts))]
		}
		seq.Requests = append(seq.Requests, model.Request{
			Server: mc.Field.Stations[cur].ID,
			Time:   t,
		})
	}
	return seq
}

// neighborTable lists, per station, the indexes of its nearest neighbors.
func (mc MarkovCells) neighborTable() [][]int {
	m := len(mc.Field.Stations)
	k := mc.Neighbors
	if k <= 0 || k > m-1 {
		k = min(4, m-1)
	}
	if k == 0 {
		k = 1 // single-station field hops to itself
	}
	table := make([][]int, m)
	for i := range table {
		type cand struct {
			j int
			d float64
		}
		cands := make([]cand, 0, m-1)
		si := mc.Field.Stations[i]
		for j, sj := range mc.Field.Stations {
			if j == i {
				continue
			}
			cands = append(cands, cand{j, (si.X-sj.X)*(si.X-sj.X) + (si.Y-sj.Y)*(si.Y-sj.Y)})
		}
		if len(cands) == 0 {
			table[i] = []int{i}
			continue
		}
		for a := 0; a < k; a++ { // partial selection sort, k is tiny
			minIdx := a
			for b := a + 1; b < len(cands); b++ {
				if cands[b].d < cands[minIdx].d {
					minIdx = b
				}
			}
			cands[a], cands[minIdx] = cands[minIdx], cands[a]
			table[i] = append(table[i], cands[a].j)
		}
	}
	return table
}

// Predictor is an order-K Markov model over station visits: it learns
// transition counts from a training sequence and predicts each next station
// from the last K. Ties and unseen contexts fall back to lower orders, then
// to the globally most frequent station.
type Predictor struct {
	K      int
	counts []map[string]map[model.ServerID]int // per order 1..K
	global map[model.ServerID]int
}

// NewPredictor creates an order-k predictor (k >= 1).
func NewPredictor(k int) *Predictor {
	if k < 1 {
		k = 1
	}
	p := &Predictor{K: k, global: map[model.ServerID]int{}}
	p.counts = make([]map[string]map[model.ServerID]int, k)
	for i := range p.counts {
		p.counts[i] = map[string]map[model.ServerID]int{}
	}
	return p
}

// Train ingests a visit history.
func (p *Predictor) Train(visits []model.ServerID) {
	for i, v := range visits {
		p.Observe(visits[:i], v)
	}
}

// Observe ingests one visit incrementally: recent is the history observed
// before v (only its last K entries are consulted). Train(visits) is
// exactly equivalent to Observe(visits[:i], visits[i]) for each i in
// order, so a live stream trains the same model a batch replay would.
func (p *Predictor) Observe(recent []model.ServerID, v model.ServerID) {
	p.global[v]++
	var buf [keyBuf]byte
	for order := 1; order <= p.K; order++ {
		if len(recent) < order {
			break
		}
		key := appendContextKey(buf[:0], recent[len(recent)-order:])
		m := p.counts[order-1][string(key)]
		if m == nil {
			m = map[model.ServerID]int{}
			p.counts[order-1][string(key)] = m
		}
		m[v]++
	}
}

// Predict returns the most likely next station after the given recent
// history (highest order with data wins; ties break to the smaller ID for
// determinism).
func (p *Predictor) Predict(recent []model.ServerID) model.ServerID {
	if m := p.match(recent); len(m) > 0 {
		return argmaxServer(m)
	}
	return 1
}

// match returns the next-station counts of the longest context of recent
// the model has data for, falling back to the global counts.
func (p *Predictor) match(recent []model.ServerID) map[model.ServerID]int {
	var buf [keyBuf]byte
	for order := min(p.K, len(recent)); order >= 1; order-- {
		key := appendContextKey(buf[:0], recent[len(recent)-order:])
		if m := p.counts[order-1][string(key)]; len(m) > 0 {
			return m
		}
	}
	return p.global
}

// Accuracy replays the predictor over a test visit sequence and returns the
// fraction of correctly predicted next stations.
func (p *Predictor) Accuracy(visits []model.ServerID) float64 {
	if len(visits) < 2 {
		return 1
	}
	hits := 0
	for i := 1; i < len(visits); i++ {
		lo := max(0, i-p.K)
		if p.Predict(visits[lo:i]) == visits[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(visits)-1)
}

// keyBuf sizes the stack buffer context keys are built in: three bytes
// per server, so contexts of up to 8 servers never touch the heap.
const keyBuf = 24

// appendContextKey appends ctx's map key to b. Indexing a map with
// string(key) allocates nothing; only inserting a new context does.
func appendContextKey(b []byte, ctx []model.ServerID) []byte {
	for _, s := range ctx {
		b = append(b, byte(s), byte(s>>8), ',')
	}
	return b
}

func argmaxServer(m map[model.ServerID]int) model.ServerID {
	best, bestN := model.ServerID(0), -1
	for s, n := range m {
		if n > bestN || (n == bestN && s < best) {
			best, bestN = s, n
		}
	}
	return best
}

// Servers extracts the visit sequence from a request sequence.
func Servers(seq *model.Sequence) []model.ServerID {
	out := make([]model.ServerID, seq.N())
	for i, r := range seq.Requests {
		out[i] = r.Server
	}
	return out
}

// PredictSequence builds the predicted request sequence for a test
// sequence: same times (arrival instants are observable from the service
// clock; it is the *locations* that trajectory mining predicts), servers
// predicted one step ahead from the true history so far.
func PredictSequence(p *Predictor, actual *model.Sequence) *model.Sequence {
	pred := actual.Clone()
	visits := Servers(actual)
	for i := range pred.Requests {
		lo := max(0, i-p.K)
		pred.Requests[i].Server = p.Predict(visits[lo:i])
	}
	return pred
}

// ExecutionReport is the outcome of replaying a predicted plan against the
// true sequence (experiment E8).
type ExecutionReport struct {
	PlanCost     float64 // FastDP optimum of the predicted sequence
	Fallbacks    int     // true requests the plan failed to cover
	FallbackCost float64 // λ per fallback transfer
	TotalCost    float64 // PlanCost + FallbackCost
	Accuracy     float64 // next-location prediction accuracy on the test set
}

// PlanAndExecute optimizes the predicted sequence off-line and replays the
// resulting schedule against the actual one: a true request is free when the
// planned schedule holds a copy on its server at its time (or planned a
// transfer there at that instant), otherwise the service falls back to one
// on-demand transfer from a planned live copy — always possible because the
// plan keeps at least one copy alive. The comparison of TotalCost against
// pure-online SC and the clairvoyant optimum is experiment E8's output.
func PlanAndExecute(p *Predictor, actual *model.Sequence, cm model.CostModel) (*ExecutionReport, error) {
	if err := actual.Validate(); err != nil {
		return nil, err
	}
	pred := PredictSequence(p, actual)
	res, err := offline.FastDP(pred, cm)
	if err != nil {
		return nil, fmt.Errorf("trajectory: optimizing predicted sequence: %w", err)
	}
	sched, err := res.Schedule()
	if err != nil {
		return nil, err
	}
	rep := &ExecutionReport{PlanCost: res.Cost(), Accuracy: p.Accuracy(Servers(actual))}
	for i, r := range actual.Requests {
		if sched.HeldAt(r.Server, r.Time) || plannedTransferAt(sched, r) || pred.Requests[i].Server == r.Server {
			continue
		}
		rep.Fallbacks++
	}
	rep.FallbackCost = float64(rep.Fallbacks) * cm.Lambda
	rep.TotalCost = rep.PlanCost + rep.FallbackCost
	return rep, nil
}

func plannedTransferAt(s *model.Schedule, r model.Request) bool {
	for _, tr := range s.Transfers {
		if tr.To == r.Server && tr.Time == r.Time {
			return true
		}
	}
	return false
}
