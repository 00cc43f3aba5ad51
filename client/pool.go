package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"datacache"
	"datacache/internal/service"
)

// Pool-route aliases, same single-definition contract as the session
// types.
type (
	// PoolState is a pool's standing with tenant rollups (GET /v1/pool/{id}).
	PoolState = service.PoolState
	// PoolDecision is one pool-served request's reply (POST {id}/request).
	PoolDecision = service.PoolDecisionDTO
	// PoolBatchResponse is the multi-item bulk reply (POST {id}/requests).
	PoolBatchResponse = service.PoolBatchResponse
	// PoolItemsResponse is the ranked item standings (GET {id}/items).
	PoolItemsResponse = service.PoolItemsResponse
	// PoolShadowResponse is the pool-wide counterfactual standings
	// (GET {id}/shadow).
	PoolShadowResponse = service.PoolShadowResponse
)

// PoolRequest is one item-keyed request of a pool batch.
type PoolRequest struct {
	Tenant string             `json:"tenant,omitempty"`
	Item   string             `json:"item"`
	Server datacache.ServerID `json:"server"`
	T      float64            `json:"t"`
}

// PoolConfig parameterizes CreatePool. Policy is a PolicySpec string
// ("sc", "ttl:window=0.5", "hybrid:horizon=8,order=2", ...) applied to
// every per-item engine; MaxItems bounds live engine state (0
// unbounded).
type PoolConfig struct {
	M        int
	Origin   datacache.ServerID
	Mu       float64
	Lambda   float64
	Policy   string
	MaxItems int
	// Shadows lists counterfactual policy specs every item engine runs
	// in lockstep; read pool-wide standings with Pool.Shadow.
	Shadows []string
}

// CreatePool opens a multi-item, multi-tenant serving pool and returns
// its handle.
func (c *Client) CreatePool(ctx context.Context, cfg PoolConfig) (*Pool, error) {
	body := service.PoolCreateRequest{
		M:        cfg.M,
		Origin:   cfg.Origin,
		Model:    service.CostModelDTO{Mu: cfg.Mu, Lambda: cfg.Lambda},
		Policy:   cfg.Policy,
		MaxItems: cfg.MaxItems,
		Shadows:  cfg.Shadows,
	}
	var st PoolState
	if err := c.post(ctx, "/v1/pool", body, &st); err != nil {
		return nil, err
	}
	return &Pool{c: c, ID: st.ID, Created: st}, nil
}

// OpenPool attaches to an existing pool by id without a round-trip; the
// first call on the handle surfaces a not_found error if it is gone.
func (c *Client) OpenPool(id string) *Pool {
	return &Pool{c: c, ID: id}
}

// Pool is the client-side handle of one multi-item serving pool. Methods
// are safe for concurrent use; the server serializes operations per pool,
// and concurrent callers should use disjoint (tenant, item) keys so
// per-key request times stay strictly increasing.
type Pool struct {
	c  *Client
	ID string
	// Created is the state returned at creation (zero for OpenPool
	// handles).
	Created PoolState
}

func (p *Pool) path(suffix string) string {
	return "/v1/pool/" + p.ID + suffix
}

// Serve submits one item-keyed request — the single-request path. Prefer
// ServeBatch for throughput.
func (p *Pool) Serve(ctx context.Context, tenant, item string, server datacache.ServerID, t float64) (PoolDecision, error) {
	var out PoolDecision
	err := p.c.post(ctx, p.path("/request"), PoolRequest{Tenant: tenant, Item: item, Server: server, T: t}, &out)
	return out, err
}

// ServeBatch submits an ordered multi-item batch under one round-trip;
// the server groups it by item under one lock acquisition. Failure is
// per-item partial: the reply lists applied decisions in submission
// order plus the first rejected index per affected item.
func (p *Pool) ServeBatch(ctx context.Context, reqs []PoolRequest) (PoolBatchResponse, error) {
	var out PoolBatchResponse
	body := struct {
		Requests []PoolRequest `json:"requests"`
	}{reqs}
	err := p.c.post(ctx, p.path("/requests"), body, &out)
	return out, err
}

// ServeBatchNDJSON submits the same batch in the NDJSON streaming shape
// (one {"tenant","item","server","t"} object per line).
func (p *Pool) ServeBatchNDJSON(ctx context.Context, reqs []PoolRequest) (PoolBatchResponse, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, r := range reqs {
		if err := enc.Encode(r); err != nil {
			return PoolBatchResponse{}, fmt.Errorf("client: encoding NDJSON line %d: %w", i+1, err)
		}
	}
	var out PoolBatchResponse
	err := p.c.do(ctx, http.MethodPost, p.path("/requests"), &buf, "application/x-ndjson", &out)
	return out, err
}

// State reads the pool's standing, tenant rollups included.
func (p *Pool) State(ctx context.Context) (PoolState, error) {
	var out PoolState
	err := p.c.get(ctx, p.path(""), &out)
	return out, err
}

// TopItems reads the pool's item standings ranked by "cost" (default
// when by is empty) or "regret", heaviest first; limit 0 returns every
// item.
func (p *Pool) TopItems(ctx context.Context, by string, limit int) (PoolItemsResponse, error) {
	q := url.Values{}
	if by != "" {
		q.Set("by", by)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := p.path("/items")
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out PoolItemsResponse
	err := p.c.get(ctx, path, &out)
	return out, err
}

// Shadow reads the pool-wide counterfactual policy standings,
// aggregated across every item engine (evicted incarnations included).
// Fails with a not_found error when the pool runs no shadows.
func (p *Pool) Shadow(ctx context.Context) (PoolShadowResponse, error) {
	var out PoolShadowResponse
	err := p.c.get(ctx, p.path("/shadow"), &out)
	return out, err
}

// Record downloads the pool's flight recording as raw bytes: every
// per-item stream declared under the pool id, one self-contained file.
// mode selects the encoding ("binary" or "ndjson"); empty keeps the
// server's native one. Fails with a not_found error when the server
// runs without -record-dir. Download before Close.
func (p *Pool) Record(ctx context.Context, mode string) ([]byte, error) {
	path := p.path("/record")
	if mode != "" {
		path += "?mode=" + mode
	}
	return p.c.getRaw(ctx, path)
}

// Close ends the pool, returning the final standings.
func (p *Pool) Close(ctx context.Context) (PoolState, error) {
	var out PoolState
	err := p.c.do(ctx, http.MethodDelete, p.path(""), nil, "", &out)
	return out, err
}
