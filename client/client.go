// Package client is the typed Go client for the datacache serving API
// (internal/service, mounted by cmd/dcserved). It wraps every /v1 route
// in a context-aware method, decodes the uniform error envelope into
// *APIError values callers can switch on, and reuses one underlying
// http.Client (and therefore its connection pool) across calls.
//
// Quick start:
//
//	c := client.New("http://localhost:8080")
//	sess, err := c.CreateSession(ctx, client.SessionConfig{M: 8, Origin: 1, Mu: 1, Lambda: 2})
//	res, err := sess.ServeBatch(ctx, []client.Request{{Server: 2, T: 0.5}, {Server: 3, T: 0.8}})
//	// res.Decisions, res.Cost, res.Optimal, res.Ratio
//	final, err := sess.Close(ctx)
//
// The batch path (Session.ServeBatch) is the intended high-throughput
// shape: one round-trip and one server-side lock acquisition per batch
// instead of per request. cmd/dcload drives it closed-loop; cmd/dctop
// uses the read-side calls.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"datacache"
	"datacache/internal/service"
)

// Re-exported response types, aliased from the service so the wire
// contract has exactly one definition.
type (
	// SessionState is a session's standing (GET /v1/session/{id}).
	SessionState = service.SessionState
	// Decision is one served request's reply (POST {id}/request).
	Decision = service.SessionDecision
	// BatchResponse is the bulk-ingestion reply (POST {id}/requests).
	BatchResponse = service.SessionBatchResponse
	// TraceResponse is the bounded decision-event ring (GET {id}/trace).
	TraceResponse = service.SessionTraceResponse
	// SLOResponse is the windowed-ratio reading (GET {id}/slo).
	SLOResponse = service.SessionSLOResponse
	// ShadowResponse is the counterfactual policy standings
	// (GET {id}/shadow).
	ShadowResponse = service.SessionShadowResponse
	// ShadowStanding is one policy row of a shadow report.
	ShadowStanding = datacache.ShadowStanding
	// CloseResponse is the final state + schedule (DELETE {id}).
	CloseResponse = service.SessionCloseResponse
	// AlertsResponse lists every session's SLO alerts (GET /v1/alerts).
	AlertsResponse = service.AlertsResponse
	// ReadyResponse is the readiness probe reply (GET /readyz).
	ReadyResponse = service.ReadyResponse
)

// Request is one {server, t} pair of a batch.
type Request struct {
	Server datacache.ServerID `json:"server"`
	T      float64            `json:"t"`
}

// SessionConfig parameterizes CreateSession.
type SessionConfig struct {
	M      int
	Origin datacache.ServerID
	Mu     float64
	Lambda float64
	// Policy is a PolicySpec string, parameters included: "sc"
	// (default), "sc:epoch=16", "ttl:window=0.5", "adaptive", "migrate",
	// "replicate" or "hybrid:horizon=8,order=2" for the prediction-fed
	// planner.
	Policy string
	// Shadows lists counterfactual policy specs ("ttl:window=0.5",
	// "sc:epoch=16", "migrate", ...) to run in lockstep with the live
	// policy; read standings with Session.Shadow.
	Shadows []string
}

// DefaultTraceSeed seeds the client's trace-id generator unless
// WithTraceSeed overrides it. Ids come from an injected seeded source,
// never the global math/rand state, so runs are reproducible.
const DefaultTraceSeed = 1

// Client talks to one dcserved base URL. Create it with New; the zero
// value is not usable.
type Client struct {
	base string
	http *http.Client

	mu  sync.Mutex // guards rng (math/rand.Rand is not goroutine-safe)
	rng *rand.Rand
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (custom
// transport, timeout, instrumentation). The default has a 30 s timeout
// and the standard pooled transport.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) {
		if h != nil {
			c.http = h
		}
	}
}

// WithTraceSeed reseeds the trace-id generator (default DefaultTraceSeed).
// Seed with time.Now().UnixNano() for distinct ids across processes.
func WithTraceSeed(seed int64) Option {
	return func(c *Client) {
		c.rng = rand.New(rand.NewSource(seed))
	}
}

// New builds a client for the service at baseURL (scheme://host[:port],
// with or without a trailing slash).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: 30 * time.Second},
		rng:  rand.New(rand.NewSource(DefaultTraceSeed)),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Health reports liveness and the server version.
func (c *Client) Health(ctx context.Context) (status, version string, err error) {
	var out struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	err = c.get(ctx, "/healthz", &out)
	return out.Status, out.Version, err
}

// Ready reports readiness: "ready" normally, "degraded" while any SLO
// alert is firing.
func (c *Client) Ready(ctx context.Context) (ReadyResponse, error) {
	var out ReadyResponse
	err := c.get(ctx, "/readyz", &out)
	return out, err
}

// Alerts lists every live session's SLO alerts, firing first.
func (c *Client) Alerts(ctx context.Context) (AlertsResponse, error) {
	var out AlertsResponse
	err := c.get(ctx, "/v1/alerts", &out)
	return out, err
}

// Spec returns the route list the server documents about itself.
func (c *Client) Spec(ctx context.Context) (map[string]string, error) {
	var out map[string]string
	err := c.get(ctx, "/v1/spec", &out)
	return out, err
}

// Metrics scrapes /metrics and parses the Prometheus 0.0.4 text format
// into series-with-labels -> value, far enough for consoles and tests.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space; label values may contain
		// escaped quotes but never a raw newline, so line-by-line holds.
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[cut+1:]), 64)
		if err != nil {
			continue
		}
		out[line[:cut]] = v
	}
	return out, nil
}

// CreateSession opens a live serving session and returns its handle.
func (c *Client) CreateSession(ctx context.Context, cfg SessionConfig) (*Session, error) {
	body := service.SessionCreateRequest{
		M:       cfg.M,
		Origin:  cfg.Origin,
		Model:   service.CostModelDTO{Mu: cfg.Mu, Lambda: cfg.Lambda},
		Policy:  cfg.Policy,
		Shadows: cfg.Shadows,
	}
	var st SessionState
	if err := c.post(ctx, "/v1/session", body, &st); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: st.ID, Created: st}, nil
}

// OpenSession attaches to an existing session by id without a round-trip;
// the first call on the handle surfaces a not_found error if it is gone.
func (c *Client) OpenSession(id string) *Session {
	return &Session{c: c, ID: id}
}

// --- plumbing ---

func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	return c.do(ctx, http.MethodGet, path, nil, "", out)
}

func (c *Client) post(ctx context.Context, path string, body, out interface{}) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: encoding %s body: %w", path, err)
	}
	return c.do(ctx, http.MethodPost, path, bytes.NewReader(buf), "application/json", out)
}

// getRaw fetches a non-JSON body (e.g. a flight-recording download)
// while keeping the error-envelope and trace-context handling of do.
func (c *Client) getRaw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	tp, _ := ctx.Value(traceparentKey{}).(string)
	if tp == "" {
		tp = c.NewTraceparent()
	}
	req.Header.Set("Traceparent", tp)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, decodeAPIError(resp)
	}
	return io.ReadAll(resp.Body)
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader, contentType string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	// Every call carries W3C trace context: either the caller's (set via
	// WithTraceparent, e.g. a load generator's per-batch root) or a fresh
	// sampled one minted from the client's seeded generator.
	tp, _ := ctx.Value(traceparentKey{}).(string)
	if tp == "" {
		tp = c.NewTraceparent()
	}
	req.Header.Set("Traceparent", tp)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeAPIError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding %s reply: %w", path, err)
		}
	}
	return nil
}
