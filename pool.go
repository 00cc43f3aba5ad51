package datacache

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
	// its engine/DP state is handed to the item being admitted, reset in
	// place, so engine memory is reused rather than freed, while the
	// evicted item's cumulative cost/optimum accounting is retained so
	// pool and per-item totals stay monotone. A later request for an
	// evicted item revives it with fresh SC state.
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
	sess *Session // nil while evicted

	// The intrusive LRU list of live items, by last serve: newer points
	// towards the most recently served item, older towards the eviction
	// candidate. Both are nil while evicted.
	newer, older *poolItem

	prevCost, prevOpt float64   // live session totals at the last serve
	prevShadow        []float64 // live session per-shadow cost at the last serve
	lastServed        float64
	revivals          int

	retiredCost, retiredOpt             float64
	retiredN, retiredHits, retiredXfers int
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
// LRU-over-last-served eviction (the evicted session is reset in place
// for the key being admitted), and rolls per-item cost/optimum/ratio up
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

	items          map[ItemKey]*poolItem
	newest, oldest *poolItem // ends of the live items' LRU list
	live           int
	tenants        map[string]*tenantAcct
	batch          batchScratch

	served    int
	evictions int
	revivals  int
	cost, opt float64
	closed    bool

	// Pool-wide shadow accounting, kept per serve from what the serve
	// added to the item session's totals: ledger line 0 is the live
	// policy and line i+1 shadow i, each with its rolling cost window in
	// wins. Nil unless the session template configures ShadowPolicies.
	livePolicy   string
	shadowNames  []string
	ledger       shadowLedger
	wins         []engine.CostWindow
	before       []ShadowTotals // the served item's shadow totals before a serve
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
	probeOpts := opts.Session
	probeOpts.Recorder = nil
	probe, err := NewSession(m, origin, cm, &probeOpts)
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
		tenants: map[string]*tenantAcct{},
		batch:   batchScratch{group: map[ItemKey]int{}},
	}
	p.livePolicy = probe.Policy()
	if names := probe.ShadowNames(); len(names) > 0 {
		p.shadowNames = append([]string(nil), names...)
		p.shadowWindow = probe.shadowWindow
		p.shadowMargin = probe.shadowMargin
		p.ledger = make(shadowLedger, 0, len(names)+1)
		p.ledger = append(p.ledger, ShadowStanding{Policy: p.livePolicy, Live: true})
		for _, name := range names {
			p.ledger = append(p.ledger, ShadowStanding{Policy: name})
		}
		p.wins = make([]engine.CostWindow, len(p.ledger))
		for i := range p.wins {
			p.wins[i] = engine.NewCostWindow(p.shadowWindow)
		}
		p.before = make([]ShadowTotals, len(names))
	}
	return p, nil
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
// reviving) its session. When the MaxItems bound is full, the
// least-recently-served item is evicted first and its session is reset
// in place for this key instead of building a new one. Reports whether
// the call revived previously evicted state.
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
	o := p.opts.Session
	if o.Recorder != nil {
		// Scope the stream to this key; every incarnation (first open or
		// post-eviction revival) opens a fresh stream, making incarnation
		// boundaries explicit in the recording.
		o.RecordTenant = tenant
		o.RecordItem = item
	}
	var sess *Session
	if p.opts.MaxItems > 0 && p.live >= p.opts.MaxItems {
		sess = p.evictLRU()
		if err := sess.revive(p.m, p.origin, &o); err != nil {
			return nil, false, err
		}
	} else {
		var err error
		if sess, err = NewSession(p.m, p.origin, p.cm, &o); err != nil {
			return nil, false, err
		}
	}
	revived := it.retiredN > 0 || it.revivals > 0
	if revived {
		it.revivals++
		p.revivals++
	}
	it.sess = sess
	it.prevCost, it.prevOpt = 0, 0
	p.pushNewest(it)
	p.live++
	return it, revived, nil
}

// pushNewest links a live item in as the most recently served.
func (p *Pool) pushNewest(it *poolItem) {
	it.older = p.newest
	if p.newest != nil {
		p.newest.newer = it
	} else {
		p.oldest = it
	}
	p.newest = it
}

// unlink takes a live item out of the LRU list.
func (p *Pool) unlink(it *poolItem) {
	if it.newer != nil {
		it.newer.older = it.older
	} else {
		p.newest = it.older
	}
	if it.older != nil {
		it.older.newer = it.newer
	} else {
		p.oldest = it.newer
	}
	it.newer, it.older = nil, nil
}

// evictLRU retires the least-recently-served live item and returns its
// session: the session closes (the schedule horizon is the item's last
// request, so no cost is added or lost) and its cumulative accounting
// folds into the item's retained totals. The caller either revives the
// session for another key or drops it.
func (p *Pool) evictLRU() *Session {
	it := p.oldest
	_, _ = it.sess.Close() // horizon = last request; cannot fail there
	it.retiredCost += it.sess.Cost()
	it.retiredOpt += it.sess.OptimalCost()
	it.retiredN += it.sess.N()
	it.retiredHits += it.sess.Hits()
	it.retiredXfers += it.sess.Transfers()
	clear(it.prevShadow) // the next incarnation starts from zero
	sess := it.sess
	it.sess = nil
	p.unlink(it)
	p.live--
	p.evictions++
	return sess
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
	if p.ledger != nil {
		if it.prevShadow == nil {
			it.prevShadow = make([]float64, len(p.before))
		}
		// A shadow's cost before this serve is the one the item's last
		// serve left (zero in a new incarnation): no stream is priced
		// twice per serve.
		ss := it.sess.shadows
		for i := range p.before {
			p.before[i] = ShadowTotals{Cost: it.prevShadow[i], Hits: ss.Hits(i),
				Transfers: ss.Transfers(i), Drops: ss.Drops(i), Divergence: ss.Divergence(i)}
		}
	}
	xfers := it.sess.Transfers()
	d, err := it.sess.Serve(server, t)
	if err != nil {
		return PoolDecision{}, fmt.Errorf("item %s: %w", it.key, err)
	}
	costDelta := d.Cost - it.prevCost
	optDelta := d.Optimal - it.prevOpt
	it.prevCost, it.prevOpt = d.Cost, d.Optimal
	if p.ledger != nil {
		p.addShadowDeltas(it, d, costDelta, xfers)
	}
	it.lastServed = t
	if p.newest != it {
		p.unlink(it)
		p.pushNewest(it)
	}
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

// addShadowDeltas adds what one serve of it added to its session's live
// and shadow totals into the pool's ledger lines and cost windows: the
// difference of each total from p.before (xfers, for the live
// transfers), taken just before the serve.
func (p *Pool) addShadowDeltas(it *poolItem, d Decision, costDelta float64, xfers int) {
	sess := it.sess
	live := ShadowStanding{Cost: costDelta, Transfers: sess.Transfers() - xfers, Drops: d.Drops}
	if d.Hit {
		live.Hits = 1
	}
	p.ledger[0].accumulate(live)
	p.wins[0].Add(costDelta)
	for i, prev := range p.before {
		tot := sess.ShadowTotals(i)
		delta := tot.Cost - prev.Cost
		it.prevShadow[i] = tot.Cost
		line := &p.ledger[i+1]
		line.accumulate(ShadowStanding{
			Cost:       delta,
			Hits:       tot.Hits - prev.Hits,
			Transfers:  tot.Transfers - prev.Transfers,
			Drops:      tot.Drops - prev.Drops,
			Divergence: tot.Divergence - prev.Divergence,
		})
		if err := sess.shadows.Err(i); err != nil && line.Err == "" {
			line.Err = err.Error()
		}
		p.wins[i+1].Add(delta)
	}
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
	// each is identical to what that request returned when the batch's
	// requests were served through Serve in the batch's grouped order
	// (see Pool.ServeBatch).
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

// batchScratch is the storage ServeBatch groups a batch by key in,
// owned by the pool and reused from batch to batch.
type batchScratch struct {
	group   map[ItemKey]int // key -> its index in groups; emptied after grouping
	groups  [][]int         // request indices per key, keys by first appearance
	applied []bool          // per request: served without rejection
}

// ServeBatch serves an ordered multi-item batch under one call: requests
// are grouped by (tenant, item) key, groups in order of each key's first
// appearance in the batch and requests in submission order within each
// group, and every request runs through exactly the same path as Serve.
// So a batch leaves the pool in a state indistinguishable from the same
// requests served one Serve call at a time in that grouped order. Under
// MaxItems the grouped order can differ from submission order in which
// items are evicted: with MaxItems 1, the batch [a@1, b@2, a@3] serves
// a@1, a@3, b@2 and evicts once, where three Serve calls in submission
// order would evict twice and revive a.
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
	// Group by key, keys by first appearance and requests in submission
	// order within each key, reusing the index slices of earlier batches.
	b := &p.batch
	b.groups = b.groups[:0]
	for i, r := range reqs {
		key := ItemKey{Tenant: r.Tenant, Item: r.Item}
		g, ok := b.group[key]
		if !ok {
			g = len(b.groups)
			b.group[key] = g
			b.groups = slices.Grow(b.groups, 1)[:g+1]
			b.groups[g] = b.groups[g][:0]
		}
		b.groups[g] = append(b.groups[g], i)
	}
	for _, idx := range b.groups {
		r := reqs[idx[0]]
		delete(b.group, ItemKey{Tenant: r.Tenant, Item: r.Item})
	}
	b.applied = slices.Grow(b.applied[:0], len(reqs))[:len(reqs)]
	clear(b.applied)

	res := &PoolBatchResult{FirstRejected: -1, Decisions: make([]PoolDecision, len(reqs))}
	var ctxErr error
serve:
	for _, idx := range b.groups {
		for _, i := range idx {
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
			res.Decisions[i] = d
			b.applied[i] = true
		}
	}
	// Close the gaps the unapplied requests left, in submission order.
	kept := res.Decisions[:0]
	for i, ok := range b.applied {
		if ok {
			kept = append(kept, res.Decisions[i])
		}
	}
	res.Decisions = kept
	slices.SortFunc(res.Rejected, func(x, y PoolRejection) int { return cmp.Compare(x.Index, y.Index) })
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
// key is unknown or its state is evicted. The session is valid until the
// key is evicted; after that the pool resets it to serve another key.
// It shares the pool's synchronization; treat it as read-only.
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

// ShadowReport builds the pool-wide counterfactual readout, or nil when
// the session template runs no shadows. Every line accumulates what
// each serve added to its item session's totals, across incarnations
// (eviction retains them, like the pool's own cost), so the report
// costs O(shadows) however many items the pool holds.
func (p *Pool) ShadowReport() *ShadowReport {
	if p.ledger == nil {
		return nil
	}
	lg := slices.Clone(p.ledger)
	for i := range lg {
		lg[i].WindowedCost = p.wins[i].Sum()
	}
	return lg.report(p.shadowWindow, p.shadowMargin, p.opt)
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
	for p.oldest != nil {
		// Closing reuses the eviction path but should not count as an
		// eviction in the stats.
		p.evictLRU()
		p.evictions--
	}
	p.closed = true
	return nil
}
