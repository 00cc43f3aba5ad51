package engine

import (
	"fmt"

	"datacache/internal/model"
)

// CostWindow is a fixed-length rolling sum of per-request cost deltas —
// the windowed-cost accumulator behind shadow-vs-live comparisons. The
// zero value is unusable; build one with NewCostWindow. Adding is O(1)
// and allocation-free once the ring has filled.
type CostWindow struct {
	buf  []float64
	head int
	sum  float64
}

// NewCostWindow returns a window summing the last n deltas (n < 1 is
// clamped to 1).
func NewCostWindow(n int) CostWindow {
	if n < 1 {
		n = 1
	}
	return CostWindow{buf: make([]float64, 0, n)}
}

// Add records one delta, evicting the oldest once the window is full.
func (w *CostWindow) Add(v float64) {
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
	} else {
		w.sum -= w.buf[w.head]
		w.buf[w.head] = v
		w.head = (w.head + 1) % len(w.buf)
	}
	w.sum += v
}

// Sum returns the rolling sum over the current window.
func (w *CostWindow) Sum() float64 { return w.sum }

// N returns how many deltas the window currently holds.
func (w *CostWindow) N() int { return len(w.buf) }

// ShadowDecider pairs a Decider with the label its counterfactual
// standings are reported under.
type ShadowDecider struct {
	Name string
	D    Decider
}

// ShadowTotals is the accumulator readout of one shadow policy: its
// stream's cost, hit/transfer/drop counters, and how often the shadow
// disagreed with the live decision.
type ShadowTotals struct {
	Cost       float64
	Hits       int
	Transfers  int
	Drops      int
	Divergence int
}

// MaxShadows bounds the number of policies one ShadowSet evaluates; the
// divergence bitmask Serve returns has one bit per shadow.
const MaxShadows = 64

// shadowState is one shadow policy's private stream plus its running
// accounting.
type shadowState struct {
	name       string
	stream     *Stream
	prevCost   float64 // Cost after the previous request
	win        CostWindow
	divergence int
	err        error // first decider/stream error; the shadow is dead after
}

// ShadowSet evaluates N additional deciders in lockstep with a live
// stream: every live request is replayed into each shadow's private
// Stream, so after n requests each shadow's ledger is exactly the state
// that policy would have reached on the same traffic. Accounting per
// request is O(M) per shadow (Stream.Cost) and allocation-free in steady
// state. A shadow whose decider errors is marked dead and skipped from
// then on — live serving never fails because of a shadow.
//
// ShadowSet is not safe for concurrent use; callers serialize it with
// the live stream they mirror (datacache.Session does both under its
// own lock).
type ShadowSet struct {
	cm       model.CostModel
	shadows  []shadowState
	liveWin  CostWindow
	livePrev float64 // live policy's cost after the previous request
	names    []string
}

// NewShadowSet builds one private Stream per decider over the same
// initial state the live stream started from. window sets the rolling
// cost window (requests) used by WindowedCost/LiveWindowedCost.
func NewShadowSet(st State, window int, ds []ShadowDecider) (*ShadowSet, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("engine: shadow set needs at least one decider")
	}
	if len(ds) > MaxShadows {
		return nil, fmt.Errorf("engine: at most %d shadow policies, got %d", MaxShadows, len(ds))
	}
	ss := &ShadowSet{
		cm:      st.Model,
		shadows: make([]shadowState, 0, len(ds)),
		liveWin: NewCostWindow(window),
		names:   make([]string, 0, len(ds)),
	}
	for _, sd := range ds {
		str, err := NewStream(sd.D, st)
		if err != nil {
			return nil, fmt.Errorf("engine: shadow %q: %w", sd.Name, err)
		}
		ss.shadows = append(ss.shadows, shadowState{
			name:   sd.Name,
			stream: str,
			win:    NewCostWindow(window),
		})
		ss.names = append(ss.names, sd.Name)
	}
	return ss, nil
}

// Serve feeds one live request to every shadow in lockstep and returns a
// bitmask of the shadows whose decision diverged from the live one (bit
// i set when shadow i's hit/miss outcome or transfer source differed).
// liveCost is the live policy's running cost after this request; it
// feeds the live rolling window the shadow-beats-live comparison uses.
func (ss *ShadowSet) Serve(server model.ServerID, t float64, live Decision, liveCost float64) uint64 {
	ss.liveWin.Add(liveCost - ss.livePrev)
	ss.livePrev = liveCost
	var mask uint64
	for i := range ss.shadows {
		sh := &ss.shadows[i]
		if sh.err != nil {
			continue
		}
		d, err := sh.stream.Serve(server, t)
		if err != nil {
			sh.err = err
			continue
		}
		c := sh.stream.Cost(ss.cm)
		sh.win.Add(c - sh.prevCost)
		sh.prevCost = c
		if d.Hit != live.Hit || d.From != live.From {
			sh.divergence++
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// Len returns the number of shadow policies (dead ones included).
func (ss *ShadowSet) Len() int { return len(ss.shadows) }

// Names returns the shadow labels in evaluation order. The slice is
// shared; callers must not mutate it.
func (ss *ShadowSet) Names() []string { return ss.names }

// Cost returns shadow i's running cost — the same O(M) computation
// Stream.Cost performs for the live policy, so a shadow running the live
// decider reproduces the live cost bit for bit.
func (ss *ShadowSet) Cost(i int) float64 {
	return ss.shadows[i].stream.Cost(ss.cm)
}

// WindowedCost returns shadow i's cost over the rolling window.
func (ss *ShadowSet) WindowedCost(i int) float64 { return ss.shadows[i].win.Sum() }

// LiveWindowedCost returns the live policy's cost over the same rolling
// window.
func (ss *ShadowSet) LiveWindowedCost() float64 { return ss.liveWin.Sum() }

// Totals returns shadow i's accumulator readout.
func (ss *ShadowSet) Totals(i int) ShadowTotals {
	sh := &ss.shadows[i]
	return ShadowTotals{
		Cost:       sh.stream.Cost(ss.cm),
		Hits:       sh.stream.Hits(),
		Transfers:  sh.stream.Transfers(),
		Drops:      sh.stream.Drops(),
		Divergence: sh.divergence,
	}
}

// Divergence returns how many requests shadow i decided differently from
// the live policy.
func (ss *ShadowSet) Divergence(i int) int { return ss.shadows[i].divergence }

// Err returns shadow i's terminal error, or nil while it is alive.
func (ss *ShadowSet) Err(i int) error { return ss.shadows[i].err }

// Hits, Transfers and Drops expose shadow i's stream counters.
func (ss *ShadowSet) Hits(i int) int      { return ss.shadows[i].stream.Hits() }
func (ss *ShadowSet) Transfers(i int) int { return ss.shadows[i].stream.Transfers() }
func (ss *ShadowSet) Drops(i int) int     { return ss.shadows[i].stream.Drops() }

// BestWindowed returns the index and windowed cost of the cheapest live
// (non-errored) shadow over the rolling window, or (-1, 0) when every
// shadow is dead.
func (ss *ShadowSet) BestWindowed() (int, float64) {
	best, bestCost := -1, 0.0
	for i := range ss.shadows {
		if ss.shadows[i].err != nil {
			continue
		}
		if c := ss.shadows[i].win.Sum(); best < 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return best, bestCost
}
