package offline

import (
	"fmt"
	"math"

	"datacache/internal/model"
)

// Incremental is the streaming form of the O(mn) dynamic program: requests
// are appended one at a time and each append updates the optimum in O(m)
// amortized time — the recurrences (2) and (5) are forward-only, so the
// batch algorithm's sweep maps directly onto a stream. It is the live
// optimum readout of sessions, pool items and replay: after any number of
// appends, Cost returns C(n) for the requests so far, bit for bit FastDP's
// C[n] on the same prefix. It keeps no decision trail; a caller that wants
// a prefix's optimal schedule runs FastDP on it.
type Incremental struct {
	seq *model.Sequence
	cm  model.CostModel

	c, d, b []float64 // C, D, B vectors, index 0 = boundary

	lastOn []int // per server: index of the most recent request (0/NoPrev boundary)
	next   []int // successor on the same server, -1 while none
	// a holds Theorem 2's A matrix row by row, as FastDP does: row i
	// (a[i*(m+1) : (i+1)*(m+1)]) is the last request on each server at or
	// before request i, so row A[p(i)] stays addressable. One flat int32
	// slice, so an append grows it instead of allocating a row.
	a []int32
}

// NewIncremental starts a stream over m servers with the initial copy at
// origin (time 0).
func NewIncremental(m int, origin model.ServerID, cm model.CostModel) (*Incremental, error) {
	seq := &model.Sequence{M: m, Origin: origin}
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	inc := &Incremental{seq: seq, cm: cm, lastOn: make([]int, m+1), a: make([]int32, m+1)}
	inc.Reset()
	return inc, nil
}

// Reset empties the stream back to the state NewIncremental leaves it
// in — the boundary entry only, the initial copy at the origin — keeping
// the storage the vectors have grown.
func (inc *Incremental) Reset() {
	inc.seq.Requests = inc.seq.Requests[:0]
	inc.c = append(inc.c[:0], 0)
	inc.d = append(inc.d[:0], 0) // boundary entry, matching newResult's D[0]
	inc.b = append(inc.b[:0], 0)
	inc.next = append(inc.next[:0], -1)
	for j := 1; j < len(inc.lastOn); j++ {
		inc.lastOn[j] = model.NoPrev
	}
	inc.lastOn[inc.seq.Origin] = 0
	inc.a = inc.a[:len(inc.lastOn)]
	for j, q := range inc.lastOn {
		inc.a[j] = int32(q)
	}
}

// N returns the number of appended requests.
func (inc *Incremental) N() int { return inc.seq.N() }

// Cost returns the optimal cost C(n) of the stream so far.
func (inc *Incremental) Cost() float64 { return inc.c[len(inc.c)-1] }

// Append adds the next request and updates the optimum. The request time
// must strictly exceed the previous one.
func (inc *Incremental) Append(r model.Request) error {
	n := inc.seq.N()
	if r.Server < 1 || int(r.Server) > inc.seq.M {
		return fmt.Errorf("offline: request server %d out of range 1..%d", r.Server, inc.seq.M)
	}
	if last := inc.seq.End(); r.Time <= last {
		return fmt.Errorf("offline: request time %v not after %v", r.Time, last)
	}
	if math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
		return fmt.Errorf("offline: request time %v not finite", r.Time)
	}
	i := n + 1
	inc.seq.Requests = append(inc.seq.Requests, r)

	// Predecessor bookkeeping.
	p := inc.lastOn[r.Server]
	inc.next = append(inc.next, -1)
	if p >= 0 {
		inc.next[p] = i
	}
	inc.lastOn[r.Server] = i
	w := inc.seq.M + 1
	inc.a = append(inc.a, inc.a[(i-1)*w:i*w]...)
	inc.a[i*w+int(r.Server)] = int32(i)

	// Bounds.
	bi := inc.cm.Lambda
	if p >= 0 {
		bi = math.Min(bi, inc.cm.Mu*(r.Time-inc.timeOf(p)))
	}
	inc.b = append(inc.b, inc.b[i-1]+bi)

	// D(i) per Recurrence (5), candidates per Theorem 2.
	dVal := math.Inf(1)
	if p != model.NoPrev {
		sigma := r.Time - inc.timeOf(p)
		base := inc.cm.Mu*sigma + inc.b[i-1]
		dVal = inc.c[p] + base - inc.b[p]
		consider := func(k int) {
			if k < 1 {
				return
			}
			if v := inc.d[k] + base - inc.b[k]; v < dVal {
				dVal = v
			}
		}
		consider(p)
		ap := inc.a[p*w : (p+1)*w]
		for j := 1; j <= inc.seq.M; j++ {
			if model.ServerID(j) == r.Server {
				continue
			}
			q := int(ap[j])
			if q == model.NoPrev {
				continue
			}
			if k := inc.next[q]; k >= 1 && k < i {
				consider(k)
			}
		}
	}
	inc.d = append(inc.d, dVal)

	// C(i) per Recurrence (2), cache branch preferred on ties.
	viaTransfer := inc.c[i-1] + inc.cm.Mu*(r.Time-inc.timeOf(i-1)) + inc.cm.Lambda
	if dVal <= viaTransfer {
		inc.c = append(inc.c, dVal)
	} else {
		inc.c = append(inc.c, viaTransfer)
	}
	return nil
}

func (inc *Incremental) timeOf(i int) float64 {
	if i <= 0 {
		return 0
	}
	return inc.seq.Requests[i-1].Time
}
