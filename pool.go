package datacache

import (
	"container/list"
	"context"
	"fmt"
	"sort"

	"datacache/internal/engine"
	"datacache/internal/obs"
)

// The paper models one shared data item; a production service hosts a
// keyspace of them. Under the homogeneous cost model items are
// independent — the catalog optimum is the sum of per-item optima and the
// 3-competitive guarantee composes — so a Pool is exactly a lazily grown
// family of per-item Sessions behind one accounting surface: per-item
// cost/optimum/ratio bitwise identical to what a dedicated Session would
// report, rolled up into per-tenant and pool-wide totals.
//
// Keys are (tenant, item) pairs — the tenant-keyed cache idiom — so two
// tenants requesting the same item name get isolated engine state and
// isolated bills.

// ItemKey identifies one engine instance of a Pool: an item name scoped
// by a tenant. The empty tenant is a valid (default) tenant.
type ItemKey struct {
	Tenant string `json:"tenant,omitempty"`
	Item   string `json:"item"`
}

// String renders the tenant-scoped key, tenant first ("tenant/item").
func (k ItemKey) String() string { return k.Tenant + "/" + k.Item }

// PoolRequest is one item-keyed request of a pool batch.
type PoolRequest struct {
	Tenant string
	Item   string
	Server ServerID
	Time   float64
}

// PoolOptions parameterizes a Pool. The zero value serves the canonical
// SC policy per item with no eviction bound and no per-tenant windowed
// ratio tracking.
type PoolOptions struct {
	// Session is the template every per-item session is opened from
	// (policy spec, trace ring, observer). Per-item SLO
	// tracking follows the template's SLOWindow; the pool's own tenant
	// trackers are configured by TenantSLOWindow below.
	Session SessionOptions
	// MaxItems bounds how many items may hold live engine state at once
	// (0 means unbounded). When a new item would exceed the bound, the
	// least-recently-served live item is evicted: its session closes and
	// its engine/DP state is freed, while its cumulative cost/optimum
	// accounting is retained so pool and per-item totals stay monotone.
	// A later request for an evicted item revives it with fresh SC state.
	MaxItems int
	// TenantSLOWindow, when positive, tracks each tenant's competitive
	// ratio over a rolling window of that many requests (readable via
	// Tenants / TenantStats.WindowedRatio). Zero disables the trackers.
	TenantSLOWindow int
}

// PoolDecision reports what one pool-served request caused: the per-item
// engine decision (bitwise identical to what a dedicated single-item
// Session would return, absent eviction), the item's cross-incarnation
// totals, and the pool-wide readout.
type PoolDecision struct {
	Decision
	Tenant string
	Item   string
	// Revived is true when this request re-instantiated an item whose
	// engine state had been evicted; the embedded Decision then starts
	// from fresh SC state.
	Revived bool
	// ItemCost and ItemOptimal accumulate across incarnations: retired
	// (evicted) totals plus the live session's readout.
	ItemCost    float64
	ItemOptimal float64
	// Pool-wide totals after this request.
	PoolCost    float64
	PoolOptimal float64
	PoolRatio   float64
}

// ItemStats is one item's line of a pool readout. Cost/Optimal/Ratio
// accumulate across incarnations; N, Hits and Transfers do too.
type ItemStats struct {
	Tenant     string  `json:"tenant,omitempty"`
	Item       string  `json:"item"`
	Live       bool    `json:"live"` // currently holds engine state
	Revivals   int     `json:"revivals,omitempty"`
	N          int     `json:"n"`
	Hits       int     `json:"hits"`
	Transfers  int     `json:"transfers"`
	LiveCopies int     `json:"liveCopies"`
	LastServed float64 `json:"lastServed"`
	Cost       float64 `json:"cost"`
	Optimal    float64 `json:"optimal"`
	Ratio      float64 `json:"ratio"`
	// Regret is the item's cumulative cost divergence from its
	// clairvoyant optimum, Cost − Optimal — the pool's per-item ranking
	// signal for "which items are pricing badly".
	Regret float64 `json:"regret"`
}

// TenantStats rolls one tenant's items up into a single bill.
type TenantStats struct {
	Tenant  string  `json:"tenant,omitempty"`
	Items   int     `json:"items"` // distinct items ever served (live or evicted)
	N       int     `json:"n"`
	Cost    float64 `json:"cost"`
	Optimal float64 `json:"optimal"`
	Ratio   float64 `json:"ratio"`
	// WindowedRatio is the tenant's competitive ratio over the rolling
	// TenantSLOWindow (equal to Ratio when tracking is disabled).
	WindowedRatio float64 `json:"windowedRatio"`
}

// PoolStats is the pool-wide readout.
type PoolStats struct {
	Items     int     `json:"items"` // distinct keys ever served
	LiveItems int     `json:"liveItems"`
	MaxItems  int     `json:"maxItems,omitempty"`
	Evictions int     `json:"evictions"`
	Revivals  int     `json:"revivals"`
	N         int     `json:"n"`
	Cost      float64 `json:"cost"`
	Optimal   float64 `json:"optimal"`
	Ratio     float64 `json:"ratio"`
}

// poolItem is one key's standing: the live session while instantiated,
// plus the accounting retired from evicted incarnations.
type poolItem struct {
	key  ItemKey
	sess *Session      // nil while evicted
	elem *list.Element // LRU position while live, nil otherwise

	prevCost, prevOpt float64   // live session totals at the last serve
	prevShadow        []float64 // live session per-shadow cost at the last serve
	lastServed        float64
	revivals          int

	retiredCost, retiredOpt                           float64
	retiredN, retiredHits, retiredXfers, retiredDrops int
	retiredShadow                                     []ShadowTotals // folded per-shadow accounting
}

// cost returns the item's cross-incarnation policy cost.
func (it *poolItem) cost() float64 {
	c := it.retiredCost
	if it.sess != nil {
		c += it.sess.Cost()
	}
	return c
}

// optimal returns the item's cross-incarnation prefix optimum.
func (it *poolItem) optimal() float64 {
	o := it.retiredOpt
	if it.sess != nil {
		o += it.sess.OptimalCost()
	}
	return o
}

// tenantAcct accumulates one tenant's rollup.
type tenantAcct struct {
	items     int
	n         int
	cost, opt float64
	slo       *obs.SLO // nil unless TenantSLOWindow > 0
}

// Pool serves a multi-item, multi-tenant keyspace over one cluster: it
// lazily instantiates one engine/DP pair (a Session) per (tenant, item)
// key on first request, optionally bounds live engine state with
// LRU-over-last-served eviction, and rolls per-item cost/optimum/ratio up
// into per-tenant and pool-wide totals. Pool totals are monotone and sum
// to the per-item totals (to floating-point accumulation order).
//
// Like Session, a Pool is not safe for concurrent use; callers (such as
// the /v1/pool HTTP endpoints) must serialize access.
type Pool struct {
	m      int
	origin ServerID
	cm     CostModel
	opts   PoolOptions

	items   map[ItemKey]*poolItem
	lru     *list.List // live items, most recently served at the front
	live    int
	tenants map[string]*tenantAcct

	served    int
	evictions int
	revivals  int
	cost, opt float64
	closed    bool

	// Pool-wide shadow accounting, maintained incrementally per serve
	// from each item session's per-shadow cost deltas. Empty
	// unless the session template configures ShadowPolicies.
	livePolicy   string
	shadowNames  []string
	shadowCost   []float64
	shadowWin    []engine.CostWindow
	liveWin      engine.CostWindow
	shadowWindow int
	shadowMargin float64

	recTrace string // trace id stamped on item sessions' next serve records
}

// NewPool opens a multi-item serving pool over m servers with every
// item's initial copy at origin. A nil opts serves the canonical SC
// policy per item, unbounded.
func NewPool(m int, origin ServerID, cm CostModel, opts *PoolOptions) (*Pool, error) {
	if opts == nil {
		opts = &PoolOptions{}
	}
	if opts.MaxItems < 0 {
		return nil, fmt.Errorf("datacache: pool MaxItems %d is negative", opts.MaxItems)
	}
	// Open and discard one session now so configuration errors (bad cost
	// model, unknown policy) surface at pool creation, not mid-traffic on
	// the first request of some unlucky item. The probe must not record:
	// a spurious zero-request stream would pollute the recording.
	probeOpts := cloneSessionOptions(opts.Session)
	probeOpts.Recorder = nil
	probe, err := NewSession(m, origin, cm, probeOpts)
	if err != nil {
		return nil, err
	}
	_, _ = probe.Close()
	p := &Pool{
		m:       m,
		origin:  origin,
		cm:      cm,
		opts:    *opts,
		items:   map[ItemKey]*poolItem{},
		lru:     list.New(),
		tenants: map[string]*tenantAcct{},
	}
	p.livePolicy = probe.Policy()
	if names := probe.ShadowNames(); len(names) > 0 {
		p.shadowNames = append([]string(nil), names...)
		p.shadowCost = make([]float64, len(names))
		p.shadowWindow = probe.shadowWindow
		p.shadowMargin = probe.shadowMargin
		p.shadowWin = make([]engine.CostWindow, len(names))
		for i := range p.shadowWin {
			p.shadowWin[i] = engine.NewCostWindow(p.shadowWindow)
		}
		p.liveWin = engine.NewCostWindow(p.shadowWindow)
	}
	return p, nil
}

// cloneSessionOptions copies the template so per-item sessions never
// share mutable option state.
func cloneSessionOptions(tpl SessionOptions) *SessionOptions {
	o := tpl
	if tpl.SLORules != nil {
		o.SLORules = append([]AlertRule(nil), tpl.SLORules...)
	}
	if tpl.ShadowPolicies != nil {
		o.ShadowPolicies = append([]PolicySpec(nil), tpl.ShadowPolicies...)
	}
	return &o
}

// tenantFor returns (creating if needed) the tenant's accumulator.
func (p *Pool) tenantFor(tenant string) *tenantAcct {
	ta := p.tenants[tenant]
	if ta == nil {
		ta = &tenantAcct{}
		if p.opts.TenantSLOWindow > 0 {
			ta.slo = obs.NewSLO(p.opts.TenantSLOWindow)
		}
		p.tenants[tenant] = ta
	}
	return ta
}

// itemFor resolves the key to a live item, lazily instantiating (or
// reviving) its session and evicting the least-recently-served item first
// when the MaxItems bound would be exceeded. Reports whether the call
// revived previously evicted state.
func (p *Pool) itemFor(tenant, item string) (*poolItem, bool, error) {
	key := ItemKey{Tenant: tenant, Item: item}
	it := p.items[key]
	if it == nil {
		it = &poolItem{key: key}
		p.items[key] = it
		p.tenantFor(tenant).items++
	}
	if it.sess != nil {
		return it, false, nil
	}
	if p.opts.MaxItems > 0 {
		for p.live >= p.opts.MaxItems {
			p.evictLRU()
		}
	}
	itemOpts := cloneSessionOptions(p.opts.Session)
	if itemOpts.Recorder != nil {
		// Scope the stream to this key; every incarnation (first open or
		// post-eviction revival) opens a fresh stream, making incarnation
		// boundaries explicit in the recording.
		itemOpts.RecordTenant = tenant
		itemOpts.RecordItem = item
	}
	sess, err := NewSession(p.m, p.origin, p.cm, itemOpts)
	if err != nil {
		return nil, false, err
	}
	revived := it.retiredN > 0 || it.revivals > 0
	if revived {
		it.revivals++
		p.revivals++
	}
	it.sess = sess
	it.prevCost, it.prevOpt = 0, 0
	it.elem = p.lru.PushFront(it)
	p.live++
	return it, revived, nil
}

// evictLRU retires the least-recently-served live item: its session
// closes (the schedule horizon is the item's last request, so no cost is
// added or lost), its cumulative accounting folds into the retained
// totals, and its engine/DP state is freed.
func (p *Pool) evictLRU() {
	back := p.lru.Back()
	if back == nil {
		return
	}
	it := back.Value.(*poolItem)
	_, _ = it.sess.Close() // horizon = last request; cannot fail there
	it.retiredCost += it.sess.Cost()
	it.retiredOpt += it.sess.OptimalCost()
	it.retiredN += it.sess.N()
	it.retiredHits += it.sess.Hits()
	it.retiredXfers += it.sess.Transfers()
	it.retiredDrops += it.sess.Drops()
	if k := len(p.shadowNames); k > 0 {
		if it.retiredShadow == nil {
			it.retiredShadow = make([]ShadowTotals, k)
		}
		for i := 0; i < k; i++ {
			tot := it.sess.ShadowTotals(i)
			rs := &it.retiredShadow[i]
			rs.Cost += tot.Cost
			rs.Hits += tot.Hits
			rs.Transfers += tot.Transfers
			rs.Drops += tot.Drops
			rs.Divergence += tot.Divergence
		}
		it.prevShadow = nil
	}
	it.sess = nil
	p.lru.Remove(it.elem)
	it.elem = nil
	p.live--
	p.evictions++
}

// Serve handles one live request for an item. Per-item request times must
// be strictly increasing and positive (independent items may interleave
// freely); servers must lie in 1..m. The first request for an unseen key
// instantiates its engine lazily.
func (p *Pool) Serve(tenant, item string, server ServerID, t float64) (PoolDecision, error) {
	if p.closed {
		return PoolDecision{}, fmt.Errorf("datacache: pool is closed")
	}
	it, revived, err := p.itemFor(tenant, item)
	if err != nil {
		return PoolDecision{}, err
	}
	if p.recTrace != "" {
		it.sess.SetRecordTraceID(p.recTrace)
	}
	d, err := it.sess.Serve(server, t)
	if err != nil {
		return PoolDecision{}, fmt.Errorf("item %s: %w", it.key, err)
	}
	costDelta := d.Cost - it.prevCost
	optDelta := d.Optimal - it.prevOpt
	it.prevCost, it.prevOpt = d.Cost, d.Optimal
	if k := len(p.shadowNames); k > 0 {
		if it.prevShadow == nil {
			it.prevShadow = make([]float64, k)
		}
		for i := 0; i < k; i++ {
			c := it.sess.ShadowCostLive(i)
			delta := c - it.prevShadow[i]
			it.prevShadow[i] = c
			p.shadowCost[i] += delta
			p.shadowWin[i].Add(delta)
		}
		p.liveWin.Add(costDelta)
	}
	it.lastServed = t
	p.lru.MoveToFront(it.elem)
	p.served++
	p.cost += costDelta
	p.opt += optDelta
	ta := p.tenantFor(tenant)
	ta.n++
	ta.cost += costDelta
	ta.opt += optDelta
	if ta.slo != nil {
		ta.slo.Observe(t, costDelta, optDelta)
	}
	return PoolDecision{
		Decision:    d,
		Tenant:      tenant,
		Item:        item,
		Revived:     revived,
		ItemCost:    it.retiredCost + d.Cost,
		ItemOptimal: it.retiredOpt + d.Optimal,
		PoolCost:    p.cost,
		PoolOptimal: p.opt,
		PoolRatio:   ratioOf(p.cost, p.opt),
	}, nil
}

// PoolRejection names one batch request the pool refused and why.
type PoolRejection struct {
	Index  int    `json:"index"` // position in the submitted batch
	Reason string `json:"reason"`
}

// PoolBatchResult reports how a multi-item batch fared. Failure is
// per-item partial: each item's subsequence applies up to its first
// rejected request — the rest of that item's requests are not attempted —
// while independent items are unaffected.
type PoolBatchResult struct {
	// Decisions holds one entry per applied request, in submission order;
	// each is identical to what the same request served through Serve
	// would have returned.
	Decisions []PoolDecision
	// Rejected lists the first rejected request of every item that had
	// one, ascending by batch index.
	Rejected []PoolRejection
	// FirstRejected is the smallest rejected batch index (-1 when every
	// request applied) and RejectReason its reason — the single-item
	// ServeBatch compatibility view.
	FirstRejected int
	RejectReason  string
	// Cost, Optimal and Ratio snapshot the pool after the batch.
	Cost    float64
	Optimal float64
	Ratio   float64
}

// ServeBatch serves an ordered multi-item batch under one call: requests
// are grouped by (tenant, item) key, preserving submission order within
// each group, and each group runs through exactly the same path as Serve
// — so a batch leaves the pool in a state indistinguishable from the same
// requests served one Serve call at a time.
//
// Failure is per-item partial (see PoolBatchResult). The context is
// honored between requests: when ctx is canceled mid-batch, ServeBatch
// stops before the next request and returns the partial result alongside
// the context's error.
func (p *Pool) ServeBatch(ctx context.Context, reqs []PoolRequest) (*PoolBatchResult, error) {
	if p.closed {
		return nil, fmt.Errorf("datacache: pool is closed")
	}
	ctx = orBackground(ctx)
	// Group by key, submission order preserved within each group and
	// across group first-appearances.
	type group struct{ idx []int }
	byKey := map[ItemKey]*group{}
	order := make([]*group, 0, 8)
	for i, r := range reqs {
		key := ItemKey{Tenant: r.Tenant, Item: r.Item}
		g := byKey[key]
		if g == nil {
			g = &group{}
			byKey[key] = g
			order = append(order, g)
		}
		g.idx = append(g.idx, i)
	}
	res := &PoolBatchResult{FirstRejected: -1}
	decisions := make([]PoolDecision, len(reqs))
	applied := make([]bool, len(reqs))
	var ctxErr error
serve:
	for _, g := range order {
		for _, i := range g.idx {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				break serve
			}
			r := reqs[i]
			d, err := p.Serve(r.Tenant, r.Item, r.Server, r.Time)
			if err != nil {
				// This item's remaining requests are not attempted;
				// later groups are independent and proceed.
				res.Rejected = append(res.Rejected, PoolRejection{Index: i, Reason: err.Error()})
				break
			}
			decisions[i] = d
			applied[i] = true
		}
	}
	for i := range reqs {
		if applied[i] {
			res.Decisions = append(res.Decisions, decisions[i])
		}
	}
	sort.Slice(res.Rejected, func(a, b int) bool { return res.Rejected[a].Index < res.Rejected[b].Index })
	if len(res.Rejected) > 0 {
		res.FirstRejected = res.Rejected[0].Index
		res.RejectReason = res.Rejected[0].Reason
	}
	res.Cost = p.cost
	res.Optimal = p.opt
	res.Ratio = ratioOf(p.cost, p.opt)
	return res, ctxErr
}

// N returns the number of requests the pool has served.
func (p *Pool) N() int { return p.served }

// Items returns how many distinct keys the pool has ever served.
func (p *Pool) Items() int { return len(p.items) }

// LiveItems returns how many items currently hold engine state.
func (p *Pool) LiveItems() int { return p.live }

// Evictions returns how many idle-item evictions the MaxItems bound has
// forced.
func (p *Pool) Evictions() int { return p.evictions }

// Cost returns the pool-wide policy cost accumulated through the last
// request. It is monotone: eviction retains, never discards, accounting.
func (p *Pool) Cost() float64 { return p.cost }

// Optimal returns the pool-wide sum of per-item prefix optima (each
// incarnation's exact off-line optimum; fresh state after an eviction
// restarts the per-incarnation DP).
func (p *Pool) Optimal() float64 { return p.opt }

// Ratio returns Cost / Optimal, the pool-wide competitive ratio (1 while
// the optimum is zero).
func (p *Pool) Ratio() float64 { return ratioOf(p.cost, p.opt) }

// Closed reports whether Close has been called.
func (p *Pool) Closed() bool { return p.closed }

// itemStats snapshots one item's line.
func (p *Pool) itemStats(it *poolItem) ItemStats {
	st := ItemStats{
		Tenant:     it.key.Tenant,
		Item:       it.key.Item,
		Live:       it.sess != nil,
		Revivals:   it.revivals,
		N:          it.retiredN,
		Hits:       it.retiredHits,
		Transfers:  it.retiredXfers,
		LastServed: it.lastServed,
		Cost:       it.retiredCost,
		Optimal:    it.retiredOpt,
	}
	if it.sess != nil {
		st.N += it.sess.N()
		st.Hits += it.sess.Hits()
		st.Transfers += it.sess.Transfers()
		st.LiveCopies = it.sess.LiveCopies()
		st.Cost += it.sess.Cost()
		st.Optimal += it.sess.OptimalCost()
	}
	st.Ratio = ratioOf(st.Cost, st.Optimal)
	st.Regret = st.Cost - st.Optimal
	return st
}

// Item returns one key's statistics and whether the key has ever been
// served.
func (p *Pool) Item(tenant, item string) (ItemStats, bool) {
	it, ok := p.items[ItemKey{Tenant: tenant, Item: item}]
	if !ok {
		return ItemStats{}, false
	}
	return p.itemStats(it), true
}

// ItemSession returns the live session behind one key, or nil when the
// key is unknown or its state is evicted. The session shares the pool's
// synchronization; treat it as read-only.
func (p *Pool) ItemSession(tenant, item string) *Session {
	it, ok := p.items[ItemKey{Tenant: tenant, Item: item}]
	if !ok {
		return nil
	}
	return it.sess
}

// AllItems returns every key's statistics, sorted by tenant then item.
func (p *Pool) AllItems() []ItemStats {
	out := make([]ItemStats, 0, len(p.items))
	for _, it := range p.items {
		out = append(out, p.itemStats(it))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// TopItems returns the k heaviest items under the given ranking — "cost"
// (cumulative policy cost) or "regret" (cost − optimum) — descending,
// ties broken by key for determinism. k <= 0 or beyond the item count
// returns every item.
func (p *Pool) TopItems(by string, k int) ([]ItemStats, error) {
	var metric func(ItemStats) float64
	switch by {
	case "", "cost":
		metric = func(s ItemStats) float64 { return s.Cost }
	case "regret":
		metric = func(s ItemStats) float64 { return s.Regret }
	default:
		return nil, fmt.Errorf("datacache: unknown item ranking %q (cost|regret)", by)
	}
	out := p.AllItems() // already key-sorted: the descending sort below is deterministic
	sort.SliceStable(out, func(i, j int) bool { return metric(out[i]) > metric(out[j]) })
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out, nil
}

// Tenants returns every tenant's rollup, sorted by tenant name. Tenant
// Cost/Optimal sum to the pool totals (to accumulation order).
func (p *Pool) Tenants() []TenantStats {
	out := make([]TenantStats, 0, len(p.tenants))
	for name, ta := range p.tenants {
		ts := TenantStats{
			Tenant:  name,
			Items:   ta.items,
			N:       ta.n,
			Cost:    ta.cost,
			Optimal: ta.opt,
			Ratio:   ratioOf(ta.cost, ta.opt),
		}
		if ta.slo != nil {
			ts.WindowedRatio = ta.slo.WindowedRatio()
		} else {
			ts.WindowedRatio = ts.Ratio
		}
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// TenantSLO returns one tenant's rolling-window ratio tracker, or nil
// when the tenant is unknown or TenantSLOWindow was zero.
func (p *Pool) TenantSLO(tenant string) *obs.SLO {
	ta := p.tenants[tenant]
	if ta == nil {
		return nil
	}
	return ta.slo
}

// SetRecordTraceID stamps the W3C trace id carried by the recorder's
// next serve record(s) for requests served through this pool, linking
// recording entries back to distributed-trace spans. It shares the
// pool's synchronization: call it only while no Serve is in flight. A
// no-op without a recorder on the session template.
func (p *Pool) SetRecordTraceID(id string) {
	if p.opts.Session.Recorder != nil {
		p.recTrace = id
	}
}

// ShadowNames returns the shadow policy labels the pool's session
// template configures, in evaluation order, or nil when the template
// runs no shadows. The slice is shared; treat it as read-only.
func (p *Pool) ShadowNames() []string { return p.shadowNames }

// Policy reports the canonical spec of the live policy every item
// engine runs ("sc", "ttl:window=0.5", "migrate", ...).
func (p *Pool) Policy() string { return p.livePolicy }

// ShadowCosts returns the pool-wide per-shadow cost accumulators
// (indexed like ShadowNames) — the per-serve gauge feed. The slice is
// shared; treat it as read-only.
func (p *Pool) ShadowCosts() []float64 { return p.shadowCost }

// ShadowReport builds the pool-wide counterfactual readout, or nil when
// the session template runs no shadows. Per-policy costs accumulate
// each item session's shadow cost deltas across incarnations (eviction
// retains them, like the pool's own cost); hit/transfer/drop/divergence
// counters aggregate over every item, so the query is O(items).
func (p *Pool) ShadowReport() *ShadowReport {
	k := len(p.shadowNames)
	if k == 0 {
		return nil
	}
	rep := &ShadowReport{
		Window:    p.shadowWindow,
		Margin:    p.shadowMargin,
		Standings: make([]ShadowStanding, 0, k+1),
	}
	live := ShadowStanding{
		Policy:          p.livePolicy,
		Live:            true,
		Cost:            p.cost,
		CostOverOptimum: ratioOf(p.cost, p.opt),
		WindowedCost:    p.liveWin.Sum(),
	}
	shadows := make([]ShadowStanding, k)
	for i := 0; i < k; i++ {
		shadows[i] = ShadowStanding{
			Policy:          p.shadowNames[i],
			Cost:            p.shadowCost[i],
			CostOverOptimum: ratioOf(p.shadowCost[i], p.opt),
			WindowedCost:    p.shadowWin[i].Sum(),
		}
	}
	for _, it := range p.items {
		live.Hits += it.retiredHits
		live.Transfers += it.retiredXfers
		live.Drops += it.retiredDrops
		if it.sess != nil {
			live.Hits += it.sess.Hits()
			live.Transfers += it.sess.Transfers()
			live.Drops += it.sess.Drops()
		}
		for i := 0; i < k; i++ {
			if it.retiredShadow != nil {
				rs := it.retiredShadow[i]
				shadows[i].Hits += rs.Hits
				shadows[i].Transfers += rs.Transfers
				shadows[i].Drops += rs.Drops
				shadows[i].Divergence += rs.Divergence
			}
			if it.sess != nil {
				tot := it.sess.ShadowTotals(i)
				shadows[i].Hits += tot.Hits
				shadows[i].Transfers += tot.Transfers
				shadows[i].Drops += tot.Drops
				shadows[i].Divergence += tot.Divergence
			}
		}
	}
	rep.Standings = append(rep.Standings, live)
	rep.Standings = append(rep.Standings, shadows...)
	best := 0
	for i := 1; i < len(rep.Standings); i++ {
		if rep.Standings[i].Cost < rep.Standings[best].Cost {
			best = i
		}
	}
	rep.Standings[best].Best = true
	rep.Best = rep.Standings[best].Policy
	return rep
}

// Shadows returns the pool-wide counterfactual standings — the live
// policy first, then every shadow, Best marking the minimum-cost line —
// or nil when the session template runs no shadows.
func (p *Pool) Shadows() []ShadowStanding {
	rep := p.ShadowReport()
	if rep == nil {
		return nil
	}
	return rep.Standings
}

// Stats snapshots the pool-wide readout.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Items:     len(p.items),
		LiveItems: p.live,
		MaxItems:  p.opts.MaxItems,
		Evictions: p.evictions,
		Revivals:  p.revivals,
		N:         p.served,
		Cost:      p.cost,
		Optimal:   p.opt,
		Ratio:     ratioOf(p.cost, p.opt),
	}
}

// Close ends the pool: every live item's session closes at the time of
// its last request and folds into the retained accounting. Further Serve
// calls fail; statistics accessors keep reporting the final state.
func (p *Pool) Close() error {
	if p.closed {
		return nil
	}
	for p.lru.Len() > 0 {
		// Closing reuses the eviction path but should not count as an
		// eviction in the stats.
		p.evictLRU()
		p.evictions--
	}
	p.closed = true
	return nil
}
