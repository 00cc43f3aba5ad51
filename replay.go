package datacache

import (
	"fmt"
	"math"
	"sort"

	"datacache/internal/engine"
	"datacache/internal/model"
	"datacache/internal/offline"
	"datacache/internal/recorder"
)

// Replay drives a flight recording back through the serving stack, three
// ways at once:
//
//   - fidelity: every stream (one engine incarnation) is replayed through
//     a fresh Session built from its recorded configuration, and the
//     re-computed cumulative cost and prefix optimum are compared
//     bit-for-bit (math.Float64bits) against what the live system
//     recorded. Floating-point re-execution of the identical operation
//     sequence is deterministic, so any mismatch is real divergence —
//     a version skew, a corrupted recording, or a bug.
//   - hindsight: the exact offline DP runs over each (session, tenant,
//     item) key's full request stream, concatenated across incarnations,
//     yielding the true ratio-to-optimum — what a clairvoyant scheduler
//     that also never evicted would have paid — per stream, per session,
//     per tenant, and over a rolling window.
//   - counterfactual: optionally, a ShadowSet policy panel rides along on
//     the replayed traffic, reporting what each alternative policy would
//     have paid on exactly this workload.

// ReplayOptions configures Replay. The zero value verifies fidelity and
// computes hindsight with the default rolling window.
type ReplayOptions struct {
	// Window is the rolling hindsight-ratio window in requests (default
	// DefaultShadowWindow).
	Window int
	// Shadows, when non-empty, runs these policy specs (ParsePolicySpec
	// syntax, e.g. "sc", "ttl:window=2", "migrate") as shadows on every
	// replayed stream and reports the aggregated panel.
	Shadows []string
}

// ReplayStream is one stream's replay verdict: one engine incarnation,
// identified the way the recorder declared it.
type ReplayStream struct {
	Stream  uint32 `json:"stream"`
	Session string `json:"session"`
	Tenant  string `json:"tenant,omitempty"`
	Item    string `json:"item,omitempty"`
	Policy  string `json:"policy"`
	N       int    `json:"n"` // serve records replayed
	// Partial marks a stream whose recording starts mid-life (a resumed
	// open with the prefix files missing): it is counted but neither
	// bitwise-verified nor fed to the hindsight DP.
	Partial bool `json:"partial,omitempty"`
	// Bitwise reports full bit-for-bit agreement of the re-computed
	// cumulative cost and prefix optimum with the recording.
	Bitwise    bool   `json:"bitwise"`
	Mismatches int    `json:"mismatches,omitempty"`
	FirstDiff  string `json:"firstDiff,omitempty"`
	// Cost is the recorded cumulative live cost at the stream's end;
	// ReplayedCost is what the fresh engine computed (equal when Bitwise).
	Cost         float64 `json:"cost"`
	ReplayedCost float64 `json:"replayedCost"`
}

// ReplayKey is one (session, tenant, item) key's hindsight rollup across
// every incarnation: live cost as recorded versus the exact offline
// optimum of the concatenated request stream.
type ReplayKey struct {
	Session      string  `json:"session"`
	Tenant       string  `json:"tenant,omitempty"`
	Item         string  `json:"item,omitempty"`
	Incarnations int     `json:"incarnations"`
	N            int     `json:"n"`
	LiveCost     float64 `json:"liveCost"`
	HindsightOpt float64 `json:"hindsightOpt"`
	Ratio        float64 `json:"ratio"`
}

// ReplayTenant is one tenant's hindsight rollup.
type ReplayTenant struct {
	Tenant       string  `json:"tenant,omitempty"`
	Keys         int     `json:"keys"`
	N            int     `json:"n"`
	LiveCost     float64 `json:"liveCost"`
	HindsightOpt float64 `json:"hindsightOpt"`
	Ratio        float64 `json:"ratio"`
}

// ReplaySession is one serving-layer session's ("sn-3", "pl-1")
// hindsight rollup.
type ReplaySession struct {
	Session      string  `json:"session"`
	Keys         int     `json:"keys"`
	N            int     `json:"n"`
	LiveCost     float64 `json:"liveCost"`
	HindsightOpt float64 `json:"hindsightOpt"`
	Ratio        float64 `json:"ratio"`
}

// ReplayReport is the full replay readout.
type ReplayReport struct {
	Files     int  `json:"files"`
	Records   int  `json:"records"` // serve records replayed
	Truncated bool `json:"truncated,omitempty"`

	// BitwiseOK is true when every non-partial stream replayed
	// bit-for-bit; Partial counts the streams that could not be checked.
	BitwiseOK bool `json:"bitwiseOK"`
	Partial   int  `json:"partial,omitempty"`

	Streams  []ReplayStream  `json:"streams"`
	Keys     []ReplayKey     `json:"keys"`
	Tenants  []ReplayTenant  `json:"tenants"`
	Sessions []ReplaySession `json:"sessions"`

	// Totals over every non-partial stream.
	LiveCost     float64 `json:"liveCost"`
	HindsightOpt float64 `json:"hindsightOpt"`
	Ratio        float64 `json:"ratio"`

	// Rolling-window hindsight ratio (live cost delta sum over hindsight
	// optimum delta sum, last Window requests): the final window and the
	// worst window seen anywhere in the stream.
	Window          int           `json:"window"`
	WindowRatio     float64       `json:"windowRatio"`
	PeakWindowRatio float64       `json:"peakWindowRatio"`
	ShadowPanel     *ShadowReport `json:"shadowPanel,omitempty"`
}

// replayStream is one stream id's in-flight replay state.
type replayStream struct {
	rep      ReplayStream
	sess     *Session // nil for partial streams
	lastCost float64  // replayed cumulative cost before the current serve
	key      *replayKey
}

// replayKey accumulates one (session, tenant, item) key across
// incarnations.
type replayKey struct {
	rep     ReplayKey
	inc     *offline.Incremental
	prevOpt float64 // DP cost before the latest serve, for window deltas
}

// Replay replays one writer's recordings (in file order, as returned by
// recorder.ReadPath) and returns the fidelity/hindsight/counterfactual
// report. Recordings from different writers must not be mixed in one
// call: stream ids are writer-scoped.
func Replay(recs []*recorder.Recording, opts *ReplayOptions) (*ReplayReport, error) {
	if opts == nil {
		opts = &ReplayOptions{}
	}
	window := opts.Window
	if window <= 0 {
		window = DefaultShadowWindow
	}
	shadows, err := WithShadowPolicies(opts.Shadows...)
	if err != nil {
		return nil, err
	}
	rep := &ReplayReport{Files: len(recs), BitwiseOK: true, Window: window}
	streams := map[uint32]*replayStream{}
	keys := map[recorder.StreamInfo]*replayKey{}
	liveWin := engine.NewCostWindow(window)
	optWin := engine.NewCostWindow(window)
	order := []uint32{}

	keyOf := func(info *recorder.StreamInfo) recorder.StreamInfo {
		return recorder.StreamInfo{Session: info.Session, Tenant: info.Tenant, Item: info.Item}
	}

	for _, rc := range recs {
		if rc.Truncated {
			rep.Truncated = true
		}
		for i := range rc.Records {
			r := &rc.Records[i]
			switch r.Kind {
			case recorder.KindOpen:
				_, exists := streams[r.Stream]
				if r.Info.Resumed && exists {
					continue // rotation re-emission of a stream we hold
				}
				if r.Info.Resumed && !exists {
					// The stream's prefix lives in files we were not
					// given: count it, but neither verify nor DP it.
					streams[r.Stream] = &replayStream{rep: ReplayStream{
						Stream: r.Stream, Session: r.Info.Session,
						Tenant: r.Info.Tenant, Item: r.Info.Item,
						Policy: r.Info.Policy, Partial: true,
					}}
					order = append(order, r.Stream)
					continue
				}
				// Fresh incarnation: fresh session from the recorded config.
				// Its shadows' windowed costs span the replay window, and
				// they track no alert: the panel carries none.
				sopts := &SessionOptions{Policy: r.Info.Policy, ShadowPolicies: shadows, ShadowWindow: window, ShadowMargin: -1}
				cm := CostModel{Mu: r.Info.Mu, Lambda: r.Info.Lambda}
				sess, err := NewSession(r.Info.M, ServerID(r.Info.Origin), cm, sopts)
				if err != nil {
					return nil, fmt.Errorf("replay: stream %d (%s): %w", r.Stream, r.Info.Session, err)
				}
				k := keyOf(r.Info)
				rk := keys[k]
				if rk == nil {
					inc, err := offline.NewIncremental(r.Info.M, model.ServerID(r.Info.Origin), model.CostModel{Mu: r.Info.Mu, Lambda: r.Info.Lambda})
					if err != nil {
						return nil, fmt.Errorf("replay: stream %d (%s): %w", r.Stream, r.Info.Session, err)
					}
					rk = &replayKey{inc: inc, rep: ReplayKey{Session: k.Session, Tenant: k.Tenant, Item: k.Item}}
					keys[k] = rk
				}
				rk.rep.Incarnations++
				streams[r.Stream] = &replayStream{
					rep: ReplayStream{
						Stream: r.Stream, Session: r.Info.Session,
						Tenant: r.Info.Tenant, Item: r.Info.Item,
						Policy: sess.Policy(), Bitwise: true,
					},
					sess: sess,
					key:  rk,
				}
				order = append(order, r.Stream)
			case recorder.KindServe:
				st := streams[r.Stream]
				if st == nil {
					return nil, fmt.Errorf("replay: serve record for undeclared stream %d", r.Stream)
				}
				rep.Records++
				st.rep.N++
				st.rep.Cost = r.Cost
				if st.sess == nil {
					continue // partial stream: count only
				}
				d, err := st.sess.Serve(ServerID(r.Server), r.Time)
				if err != nil {
					return nil, fmt.Errorf("replay: stream %d (%s) request %d: %w", r.Stream, st.rep.Session, st.rep.N, err)
				}
				st.rep.ReplayedCost = d.Cost
				if math.Float64bits(d.Cost) != math.Float64bits(r.Cost) ||
					math.Float64bits(d.Optimal) != math.Float64bits(r.Optimal) {
					st.rep.Mismatches++
					if st.rep.Bitwise {
						st.rep.Bitwise = false
						st.rep.FirstDiff = fmt.Sprintf("request %d (t=%g): cost %v vs recorded %v, optimal %v vs recorded %v",
							st.rep.N, r.Time, d.Cost, r.Cost, d.Optimal, r.Optimal)
					}
				}
				// Hindsight: feed the key's cross-incarnation DP. Per-key
				// times increase strictly across incarnations, so the
				// concatenated stream is a valid request sequence.
				if err := st.key.inc.Append(model.Request{Server: model.ServerID(r.Server), Time: r.Time}); err != nil {
					return nil, fmt.Errorf("replay: stream %d (%s) hindsight DP: %w", r.Stream, st.rep.Session, err)
				}
				liveDelta := d.Cost - st.lastCost
				st.lastCost = d.Cost
				optDelta := st.key.inc.Cost() - st.key.prevOpt
				st.key.prevOpt = st.key.inc.Cost()
				st.key.rep.N++
				liveWin.Add(liveDelta)
				optWin.Add(optDelta)
				if ratio := ratioOf(liveWin.Sum(), optWin.Sum()); ratio > rep.PeakWindowRatio {
					rep.PeakWindowRatio = ratio
				}
			}
		}
	}

	// Per-stream wrap-up and rollups.
	tenants := map[string]*ReplayTenant{}
	sessions := map[string]*ReplaySession{}
	for _, id := range order {
		st := streams[id]
		if st.rep.N == 0 && st.rep.Partial {
			// A resumed declaration with no serves in the files we have.
			continue
		}
		rep.Streams = append(rep.Streams, st.rep)
		if st.rep.Partial {
			rep.Partial++
			continue
		}
		if !st.rep.Bitwise {
			rep.BitwiseOK = false
		}
		st.key.rep.LiveCost += st.rep.Cost
	}
	for _, rk := range keys {
		rk.rep.HindsightOpt = rk.inc.Cost()
		rk.rep.Ratio = ratioOf(rk.rep.LiveCost, rk.rep.HindsightOpt)
		rep.Keys = append(rep.Keys, rk.rep)
	}
	sort.Slice(rep.Keys, func(i, j int) bool {
		a, b := rep.Keys[i], rep.Keys[j]
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Item < b.Item
	})
	// Sum in the sorted key order: a map's order would move the totals'
	// last bits from one replay of the same recording to the next.
	for _, k := range rep.Keys {
		rep.LiveCost += k.LiveCost
		rep.HindsightOpt += k.HindsightOpt
		ta := tenants[k.Tenant]
		if ta == nil {
			ta = &ReplayTenant{Tenant: k.Tenant}
			tenants[k.Tenant] = ta
		}
		ta.Keys++
		ta.N += k.N
		ta.LiveCost += k.LiveCost
		ta.HindsightOpt += k.HindsightOpt
		ss := sessions[k.Session]
		if ss == nil {
			ss = &ReplaySession{Session: k.Session}
			sessions[k.Session] = ss
		}
		ss.Keys++
		ss.N += k.N
		ss.LiveCost += k.LiveCost
		ss.HindsightOpt += k.HindsightOpt
	}
	rep.Ratio = ratioOf(rep.LiveCost, rep.HindsightOpt)
	rep.WindowRatio = ratioOf(liveWin.Sum(), optWin.Sum())
	for _, ta := range tenants {
		ta.Ratio = ratioOf(ta.LiveCost, ta.HindsightOpt)
		rep.Tenants = append(rep.Tenants, *ta)
	}
	for _, ss := range sessions {
		ss.Ratio = ratioOf(ss.LiveCost, ss.HindsightOpt)
		rep.Sessions = append(rep.Sessions, *ss)
	}
	sort.Slice(rep.Tenants, func(i, j int) bool { return rep.Tenants[i].Tenant < rep.Tenants[j].Tenant })
	sort.Slice(rep.Sessions, func(i, j int) bool { return rep.Sessions[i].Session < rep.Sessions[j].Session })

	if len(opts.Shadows) > 0 {
		// The panel merges every replayed stream's session report, in
		// stream order, over the recording's hindsight optimum.
		var panels []*ShadowReport
		for _, id := range order {
			if st := streams[id]; st.sess != nil {
				panels = append(panels, st.sess.ShadowReport())
			}
		}
		rep.ShadowPanel = MergeShadowReports(rep.HindsightOpt, panels...)
	}
	return rep, nil
}

// ReplayPath loads a recording file (or a directory of rotated files)
// and replays it; see Replay.
func ReplayPath(path string, opts *ReplayOptions) (*ReplayReport, error) {
	recs, err := recorder.ReadPath(path)
	if err != nil {
		return nil, err
	}
	return Replay(recs, opts)
}
