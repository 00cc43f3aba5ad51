package service

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/obs"
)

// The /v1/pool routes expose datacache.Pool over HTTP: a multi-item,
// multi-tenant keyspace behind one id, lazily instantiating one engine
// per (tenant, item) key. The wire shapes mirror the single-item
// /v1/session routes — same envelope, same partial-failure batch
// semantics, same 16-shard registry underneath — with an item (and
// optional tenant) field on every serve body. Batch ingestion groups
// requests by item inside one entry-lock acquisition, so a mixed-item
// batch costs one lock round regardless of how many engines it touches.
//
// Per-pool metric series — dc_pool_items, dc_pool_evictions_total,
// dc_pool_cost / dc_pool_optimal_cost / dc_pool_cost_over_optimum and
// the per-tenant dc_pool_tenant_windowed_ratio — are read from the pool
// when a scrape or a history sample asks, and retired when the pool
// closes, exactly like the per-session series.

// poolEntry wraps a Pool with the same concurrency shape a sessionEntry
// has: a context-aware entry lock for serialization and an inflight
// budget counter for shedding. It also remembers the eviction count
// already fed to the dc_pool_evictions_total counter (counters are
// monotone, so the collector feeds deltas).
type poolEntry struct {
	lk       entryLock
	inflight atomic.Int64
	pool     *datacache.Pool
	pubEvict int // evictions already published to the counter
}

// PoolCreateRequest is the /v1/pool body. Policy configures the
// per-item engines; maxItems bounds live engine state (0 unbounded)
// with LRU eviction beyond it.
type PoolCreateRequest struct {
	M      int            `json:"m"`
	Origin model.ServerID `json:"origin"`
	Model  CostModelDTO   `json:"model"`
	// Policy is a PolicySpec string for every item engine ("sc",
	// "ttl:window=0.5", "hybrid:horizon=8,order=2", ...).
	Policy   string   `json:"policy,omitempty"`
	MaxItems int      `json:"maxItems,omitempty"`
	Shadows  []string `json:"shadows,omitempty"` // counterfactual policy specs
}

// PoolShadowResponse is the GET {id}/shadow reply: pool-wide
// counterfactual policy standings aggregated across every item engine,
// evicted incarnations included.
type PoolShadowResponse struct {
	ID      string  `json:"id"`
	Policy  string  `json:"policy"`
	N       int     `json:"n"`
	Cost    float64 `json:"cost"`
	Optimal float64 `json:"optimal"`
	Ratio   float64 `json:"ratio"`
	datacache.ShadowReport
}

// PoolState reports a pool's standing, tenants included.
type PoolState struct {
	ID        string                  `json:"id"`
	Items     int                     `json:"items"`
	LiveItems int                     `json:"liveItems"`
	MaxItems  int                     `json:"maxItems,omitempty"`
	Evictions int                     `json:"evictions"`
	Revivals  int                     `json:"revivals"`
	N         int                     `json:"n"`
	Cost      float64                 `json:"cost"`
	Optimal   float64                 `json:"optimal"`
	Ratio     float64                 `json:"ratio"`
	Tenants   []datacache.TenantStats `json:"tenants"`
}

// PoolServeRequest is one item-keyed live request ("time" is accepted as
// an alias of "t", matching the session batch DTO).
type PoolServeRequest struct {
	Tenant string         `json:"tenant,omitempty"`
	Item   string         `json:"item"`
	Server model.ServerID `json:"server"`
	T      float64        `json:"t,omitempty"`
	Time   float64        `json:"time,omitempty"` // alias of t
}

// at returns the request instant, honoring the t/time alias.
func (p PoolServeRequest) at() float64 {
	if p.T != 0 {
		return p.T
	}
	return p.Time
}

// PoolDecisionDTO is the reply to one pool-served request: the per-item
// engine decision plus the item's cross-incarnation totals and the
// pool-wide readout after the request.
type PoolDecisionDTO struct {
	ID      string         `json:"id"`
	Tenant  string         `json:"tenant,omitempty"`
	Item    string         `json:"item"`
	Revived bool           `json:"revived,omitempty"`
	Server  model.ServerID `json:"server"`
	Time    float64        `json:"time"`
	Hit     bool           `json:"hit"`
	From    model.ServerID `json:"from,omitempty"`
	Regret  float64        `json:"regret"`
	// Item-cumulative standings (across incarnations).
	ItemCost    float64 `json:"itemCost"`
	ItemOptimal float64 `json:"itemOptimal"`
	// Pool-wide standings after this request.
	PoolCost    float64 `json:"poolCost"`
	PoolOptimal float64 `json:"poolOptimal"`
	PoolRatio   float64 `json:"poolRatio"`
}

func poolDecisionDTO(id string, d datacache.PoolDecision) PoolDecisionDTO {
	return PoolDecisionDTO{
		ID:          id,
		Tenant:      d.Tenant,
		Item:        d.Item,
		Revived:     d.Revived,
		Server:      d.Server,
		Time:        d.Decision.Time,
		Hit:         d.Hit,
		From:        d.From,
		Regret:      d.Regret,
		ItemCost:    d.ItemCost,
		ItemOptimal: d.ItemOptimal,
		PoolCost:    d.PoolCost,
		PoolOptimal: d.PoolOptimal,
		PoolRatio:   d.PoolRatio,
	}
}

// PoolBatchResponse is the bulk-ingestion reply. Failure is per-item
// partial: rejected lists the first refused request of every item that
// had one; firstRejected/rejectReason keep the single-item view.
type PoolBatchResponse struct {
	ID            string                    `json:"id"`
	N             int                       `json:"n"`
	Applied       int                       `json:"applied"`
	FirstRejected int                       `json:"firstRejected"`
	RejectReason  string                    `json:"rejectReason,omitempty"`
	Rejected      []datacache.PoolRejection `json:"rejected,omitempty"`
	Decisions     []PoolDecisionDTO         `json:"decisions"`
	Cost          float64                   `json:"cost"`
	Optimal       float64                   `json:"optimal"`
	Ratio         float64                   `json:"ratio"`
}

// PoolItemsResponse is the GET {id}/items reply: item standings ranked
// by cumulative cost (default) or regret, heaviest first.
type PoolItemsResponse struct {
	ID    string                `json:"id"`
	By    string                `json:"by"`
	Total int                   `json:"total"` // distinct keys in the pool
	Items []datacache.ItemStats `json:"items"`
}

// PoolBatchRequestBody is the JSON-object shape of POST {id}/requests.
type PoolBatchRequestBody struct {
	Requests []PoolServeRequest `json:"requests"`
}

func poolState(id string, p *datacache.Pool) PoolState {
	st := p.Stats()
	tenants := p.Tenants()
	if tenants == nil {
		tenants = []datacache.TenantStats{}
	}
	return PoolState{
		ID:        id,
		Items:     st.Items,
		LiveItems: st.LiveItems,
		MaxItems:  st.MaxItems,
		Evictions: st.Evictions,
		Revivals:  st.Revivals,
		N:         st.N,
		Cost:      st.Cost,
		Optimal:   st.Optimal,
		Ratio:     st.Ratio,
		Tenants:   tenants,
	}
}

// publishPoolGauges writes one pool's metric series. Callers hold the
// pool entry lock.
func (s *Server) publishPoolGauges(id string, e *poolEntry) {
	p := e.pool
	s.poolItems.With(id).Set(float64(p.LiveItems()))
	s.poolCost.With(id).Set(p.Cost())
	s.poolOpt.With(id).Set(p.Optimal())
	s.poolRatio.With(id).Set(p.Ratio())
	if ev := p.Evictions(); ev > e.pubEvict {
		s.poolEvict.With(id).Add(int64(ev - e.pubEvict))
		e.pubEvict = ev
	}
	for _, ts := range p.Tenants() {
		s.poolTenantWRat.With(id, ts.Tenant).Set(ts.WindowedRatio)
	}
	if rep := p.ShadowReport(); rep != nil {
		publishShadowRows(s.poolShadowCost, s.poolShadowRat, s.poolShadowBest, id, rep)
	}
}

// dropPoolGauges retires a closed pool's metric series so /metrics does
// not grow without bound, reading the tenant and policy labels off the
// closed pool. It takes the entry lock itself; callers must not hold it.
func (s *Server) dropPoolGauges(id string, e *poolEntry) {
	_ = e.lk.lock(context.Background()) // never fails: the context cannot be canceled
	tenants := e.pool.Tenants()
	policies := append([]string{e.pool.Policy()}, e.pool.ShadowNames()...)
	e.lk.unlock()
	s.poolItems.Delete(id)
	s.poolCost.Delete(id)
	s.poolOpt.Delete(id)
	s.poolRatio.Delete(id)
	s.poolEvict.Delete(id)
	for _, ts := range tenants {
		s.poolTenantWRat.Delete(id, ts.Tenant)
	}
	for _, p := range policies {
		s.poolShadowCost.Delete(id, p)
		s.poolShadowRat.Delete(id, p)
		s.poolShadowBest.Delete(id, p)
	}
	s.tracer.DropSession(id)
}

func (s *Server) handlePoolCreate(w http.ResponseWriter, r *http.Request) {
	var req PoolCreateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Origin == 0 {
		req.Origin = 1
	}
	shadows, err := datacache.WithShadowPolicies(req.Shadows...)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	// Per-item engines stay lean — no trace ring, no per-item SLO — since
	// a pool may instantiate thousands of them; ratio tracking lives at
	// the tenant rollup, windowed by the server's SLO window. Shadow
	// alerts are likewise disabled per item (margin < 0): counterfactual
	// standings aggregate at the pool rollup instead. The id is minted
	// before the pool exists so the flight recorder declares every
	// per-item stream under it.
	id := fmt.Sprintf("pl-%d", s.nextID.Add(1))
	pool, err := datacache.NewPool(req.M, req.Origin, req.Model.toModel(), &datacache.PoolOptions{
		Session: datacache.SessionOptions{
			Policy:         req.Policy,
			Observer:       s.poolObserver(),
			ShadowPolicies: shadows,
			ShadowMargin:   -1,
			Recorder:       s.recorder,
			RecordSession:  id,
		},
		MaxItems:        req.MaxItems,
		TenantSLOWindow: s.sloWindow,
	})
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	s.pools.put(id, &poolEntry{lk: newEntryLock(), pool: pool})
	s.poolsOpen.Add(1)
	w.Header().Set("Location", "/v1/pool/"+id)
	writeJSON(w, http.StatusCreated, poolState(id, pool))
}

// poolObserver feeds every per-item decision event into the kind-labeled
// engine counters. Unlike the session observer it keeps no per-serve
// event buffer: pool spans are annotated from the decision itself.
func (s *Server) poolObserver() datacache.Observer {
	return obs.ObserverFunc(func(ev obs.Event) {
		if k := int(ev.Kind); k >= 0 && k < len(s.engineEventK) {
			s.engineEventK[k].Inc()
		}
	})
}

func (s *Server) handlePoolOp(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/pool/")
	parts := strings.SplitN(rest, "/", 2)
	id := parts[0]
	op := ""
	if len(parts) == 2 {
		op = parts[1]
	}
	entry, ok := s.pools.get(id)
	if !ok {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown pool %q", id))
		return
	}
	switch {
	case op == "request" && r.Method == http.MethodPost:
		var req PoolServeRequest
		if !s.readJSON(w, r, &req) {
			return
		}
		if !s.acquireServeSlot(w, r, "pool", id, &entry.inflight) {
			return
		}
		defer entry.inflight.Add(-1)
		if !s.lockEntry(w, r, "pool", entry.lk) {
			return
		}
		root := obs.SpanFrom(r.Context())
		if root != nil {
			root.Session = id
			entry.pool.SetRecordTraceID(root.TraceID)
		}
		span := root.StartChild("serve")
		start := time.Now()
		d, err := entry.pool.Serve(req.Tenant, req.Item, req.Server, req.at())
		elapsed := time.Since(start)
		closed := entry.pool.Closed()
		entry.lk.unlock()
		if err != nil {
			if span != nil {
				span.Session = id
				span.Error = true
				span.End()
			}
			status := http.StatusBadRequest
			if closed {
				status = http.StatusConflict
			}
			s.httpError(w, r, status, err)
			return
		}
		annotateServeSpan(span, id, d.Decision, "",
			shadowDivergenceLabel(entry.pool.ShadowNames(), d.ShadowDiverged))
		if root != nil && root.Sampled() {
			s.decisionSec.ObserveExemplar(elapsed.Seconds(), root.TraceID)
		} else {
			s.decisionSec.Observe(elapsed.Seconds())
		}
		writeJSON(w, http.StatusOK, poolDecisionDTO(id, d))
	case op == "requests" && r.Method == http.MethodPost:
		s.handlePoolBatch(w, r, id, entry)
	case op == "record" && r.Method == http.MethodGet:
		s.handleRecordDownload(w, r, id)
	case op == "" && r.Method == http.MethodGet:
		if !s.lockEntry(w, r, "pool", entry.lk) {
			return
		}
		state := poolState(id, entry.pool)
		entry.lk.unlock()
		writeJSON(w, http.StatusOK, state)
	case op == "items" && r.Method == http.MethodGet:
		by, limit, err := parseItemsQuery(r.URL.Query())
		if err != nil {
			s.httpError(w, r, http.StatusBadRequest, err)
			return
		}
		if !s.lockEntry(w, r, "pool", entry.lk) {
			return
		}
		items, rankErr := entry.pool.TopItems(by, limit)
		total := entry.pool.Items()
		entry.lk.unlock()
		if rankErr != nil {
			s.httpError(w, r, http.StatusBadRequest, rankErr)
			return
		}
		if items == nil {
			items = []datacache.ItemStats{} // render [] rather than null
		}
		if by == "" {
			by = "cost"
		}
		writeJSON(w, http.StatusOK, PoolItemsResponse{ID: id, By: by, Total: total, Items: items})
	case op == "shadow" && r.Method == http.MethodGet:
		if !s.lockEntry(w, r, "pool", entry.lk) {
			return
		}
		rep := entry.pool.ShadowReport()
		state := poolState(id, entry.pool)
		entry.lk.unlock()
		if rep == nil {
			s.httpError(w, r, http.StatusNotFound, fmt.Errorf("pool %q has no shadow policies", id))
			return
		}
		writeJSON(w, http.StatusOK, PoolShadowResponse{
			ID:           id,
			Policy:       entry.pool.Policy(),
			N:            state.N,
			Cost:         state.Cost,
			Optimal:      state.Optimal,
			Ratio:        state.Ratio,
			ShadowReport: *rep,
		})
	case op == "" && r.Method == http.MethodDelete:
		if !s.lockEntry(w, r, "pool", entry.lk) {
			return
		}
		err := entry.pool.Close()
		state := poolState(id, entry.pool)
		entry.lk.unlock()
		if err != nil {
			s.httpError(w, r, http.StatusInternalServerError, err)
			return
		}
		if s.pools.delete(id) { // racing DELETEs must tear down once
			s.poolsOpen.Add(-1)
			s.dropPoolGauges(id, entry)
		}
		writeJSON(w, http.StatusOK, state)
	default:
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown pool operation %q %s", op, r.Method))
	}
}

// parseItemsQuery validates GET {id}/items parameters.
func parseItemsQuery(q url.Values) (by string, limit int, err error) {
	by = q.Get("by")
	switch by {
	case "", "cost", "regret":
	default:
		return "", 0, fmt.Errorf("unknown item ranking %q (cost|regret)", by)
	}
	limit = 0
	if raw := q.Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 0 {
			return "", 0, fmt.Errorf("bad limit %q", raw)
		}
	}
	return by, limit, nil
}

// handlePoolBatch serves POST /v1/pool/{id}/requests: an ordered
// multi-item batch under ONE entry-lock acquisition, grouped by item
// inside the pool, with per-item partial-failure semantics.
func (s *Server) handlePoolBatch(w http.ResponseWriter, r *http.Request, id string, entry *poolEntry) {
	items, err := decodeBatch[PoolBatchRequestBody](r)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	if len(items) > MaxBatchRequests {
		s.httpError(w, r, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds the %d-request bound", len(items), MaxBatchRequests))
		return
	}
	reqs := make([]datacache.PoolRequest, len(items))
	for i, it := range items {
		reqs[i] = datacache.PoolRequest{Tenant: it.Tenant, Item: it.Item, Server: it.Server, Time: it.at()}
	}

	if !s.acquireServeSlot(w, r, "pool", id, &entry.inflight) {
		return
	}
	defer entry.inflight.Add(-1)
	if !s.lockEntry(w, r, "pool", entry.lk) {
		return
	}
	if entry.pool.Closed() {
		entry.lk.unlock()
		s.httpError(w, r, http.StatusConflict, fmt.Errorf("pool %q is closed", id))
		return
	}
	root := obs.SpanFrom(r.Context())
	if root != nil {
		root.Session = id
		entry.pool.SetRecordTraceID(root.TraceID)
	}
	start := time.Now()
	res, batchErr := entry.pool.ServeBatch(r.Context(), reqs)
	elapsed := time.Since(start)
	var n int
	if res != nil {
		n = entry.pool.N()
	}
	entry.lk.unlock()
	if batchErr != nil {
		// ServeBatch fails outright only on a closed pool (handled above)
		// or a context canceled mid-batch; applied requests stay applied.
		applied := 0
		if res != nil {
			applied = len(res.Decisions)
		}
		s.httpError(w, r, StatusClientClosedRequest,
			fmt.Errorf("batch aborted after %d of %d requests: %v", applied, len(reqs), batchErr))
		return
	}
	s.batchSize.Observe(float64(len(reqs)))
	if applied := len(res.Decisions); applied > 0 {
		perDecision := elapsed.Seconds() / float64(applied)
		if root != nil && root.Sampled() {
			s.decisionSec.ObserveExemplar(perDecision, root.TraceID)
		} else {
			s.decisionSec.Observe(perDecision)
		}
		if root != nil {
			shadowNames := entry.pool.ShadowNames() // immutable after create
			for _, d := range res.Decisions {
				sp := root.StartChild("serve")
				sp.Start = start
				annotateServeSpan(sp, id, d.Decision, "",
					shadowDivergenceLabel(shadowNames, d.ShadowDiverged))
				sp.Duration = perDecision
			}
		}
	}
	resp := PoolBatchResponse{
		ID:            id,
		N:             n,
		Applied:       len(res.Decisions),
		FirstRejected: res.FirstRejected,
		RejectReason:  res.RejectReason,
		Rejected:      res.Rejected,
		Decisions:     make([]PoolDecisionDTO, len(res.Decisions)),
		Cost:          res.Cost,
		Optimal:       res.Optimal,
		Ratio:         res.Ratio,
	}
	for i, d := range res.Decisions {
		resp.Decisions[i] = poolDecisionDTO(id, d)
	}
	writeJSON(w, http.StatusOK, resp)
}
