package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"datacache"
	"datacache/internal/model"
)

// The service oracle runs seeded random programs of calls over several
// sessions and pools through an in-process server, and holds every reply
// to a datacache reference of each entry, built with the same policy,
// shadows and MaxItems:
//
//   - every 200 reply is, byte for byte, what encoding/json writes for
//     the DTO built from the reference's result;
//   - every error reply carries the status and envelope code the
//     reference's outcome implies;
//   - every 200 serve's trace holds one serve child per applied request,
//     each carrying the reference decision's server, outcome, drops,
//     shadow divergence and regret bits, and, on a session, an events
//     label with the request's own event.
//
// A program mixes single serves, batches in all three body shapes
// (rejected requests included, so that partial-failure replies occur),
// GET state, DELETE, serves to deleted ids and serves to an entry closed
// under its entry lock.

// oracleSessions and oraclePools are the entries a program opens, in
// turn.
var (
	oracleSessions = []SessionCreateRequest{
		{M: 4, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1}, Policy: "sc"},
		{M: 4, Origin: 2, Model: CostModelDTO{Mu: 1, Lambda: 2}, Policy: "ttl:window=0.5", Shadows: []string{"sc", "migrate"}},
		{M: 5, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2}, Policy: "hybrid:horizon=8,order=2"},
		{M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1}, Policy: "sc", Shadows: []string{"ttl:window=0.5", "sc:epoch=16"}},
		{M: 4, Origin: 3, Model: CostModelDTO{Mu: 2, Lambda: 1}, Policy: "hybrid:horizon=8,order=2", Shadows: []string{"migrate"}},
		{M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2}, Policy: "ttl:window=0.5"},
	}
	oraclePools = []PoolCreateRequest{
		{M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2}, MaxItems: 2},
		{M: 4, Origin: 2, Model: CostModelDTO{Mu: 1, Lambda: 1}, Policy: "ttl:window=0.5", MaxItems: 3, Shadows: []string{"sc", "migrate"}},
		{M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2}, Policy: "hybrid:horizon=8,order=2", MaxItems: 2},
	}
	oracleTenants = []string{"", "", "x", "<&>"}
	oracleItems   = []string{"a", "b", "c", "d", "e", "café"}
)

// oracleEntry is one session or pool the program opened, with its
// reference: exactly one of sess and pool is set.
type oracleEntry struct {
	id, path string // path is "/v1/session/<id>" or "/v1/pool/<id>"
	m        int
	sess     *datacache.Session
	pool     *datacache.Pool
	clock    float64 // the time of the entry's latest drawn request
	closed   bool    // closed under its entry lock
}

// oracle is one program's state.
type oracle struct {
	t       *testing.T
	srv     *Server
	rng     *rand.Rand
	open    []*oracleEntry
	gone    []string // paths of deleted entries
	created int
}

func TestServiceOracle(t *testing.T) {
	seeds, steps := 12, 400
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			o := &oracle{t: t, srv: New(), rng: rand.New(rand.NewSource(seed))}
			for i := 0; i < 4; i++ {
				o.create()
			}
			for step := 0; step < steps; step++ {
				if len(o.open) == 0 {
					o.create()
					continue
				}
				e := o.open[o.rng.Intn(len(o.open))]
				switch p := o.rng.Intn(100); {
				case p < 35:
					o.single(e)
				case p < 70:
					o.batch(e)
				case p < 80:
					o.get(e)
				case p < 84:
					o.delete(e)
				case p < 87:
					o.closeUnderLock(e)
				case p < 90:
					o.serveGone()
				case len(o.open) < 6:
					o.create()
				default:
					o.single(e)
				}
			}
			for len(o.open) > 0 {
				o.delete(o.open[0])
			}
			if n, m := o.srv.sessions.len(), o.srv.pools.len(); n != 0 || m != 0 {
				t.Fatalf("%d sessions and %d pools left open after every DELETE", n, m)
			}
		})
	}
}

// call serves one request in process.
func (o *oracle) call(method, path, body string, ndjson bool) *httptest.ResponseRecorder {
	return fuzzCall(o.srv, method, path, []byte(body), ndjson)
}

// expect requires status and, byte for byte, the encoding/json encoding
// of dto.
func (o *oracle) expect(what string, w *httptest.ResponseRecorder, status int, dto any) {
	o.t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(dto); err != nil {
		o.t.Fatalf("%s: encoding the reference reply: %v", what, err)
	}
	if w.Code != status || !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		o.t.Fatalf("%s: status %d, reply %q; want %d, %q", what, w.Code, w.Body, status, want.Bytes())
	}
}

// expectError requires status in the error envelope, with its code.
func (o *oracle) expectError(what string, w *httptest.ResponseRecorder, status int) {
	o.t.Helper()
	var env ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != status ||
		env.Error.Code != codeForStatus(status) || env.Error.Message == "" {
		o.t.Fatalf("%s: status %d, reply %q; want %d %q", what, w.Code, w.Body, status, codeForStatus(status))
	}
}

// expectSpans requires the trace named in w's Traceparent to hold one
// serve child per decision in ds, in order, each annotated with it.
func (o *oracle) expectSpans(what string, w *httptest.ResponseRecorder, e *oracleEntry, ds []datacache.Decision) {
	o.t.Helper()
	parts := strings.Split(w.Header().Get("Traceparent"), "-")
	if len(parts) != 4 {
		o.t.Fatalf("%s: reply Traceparent %q", what, w.Header().Get("Traceparent"))
	}
	var serves []int
	spans := o.srv.tracer.TraceSpans(parts[1])
	for i, sp := range spans {
		if sp.Name == "serve" {
			serves = append(serves, i)
		}
	}
	if len(serves) != len(ds) {
		o.t.Fatalf("%s: trace %s holds %d serve spans, want one per applied request, %d", what, parts[1], len(serves), len(ds))
	}
	names := e.shadowNames()
	for i, d := range ds {
		sp := spans[serves[i]]
		decision := "transfer"
		if d.Hit {
			decision = "hit"
		}
		var diverged []string
		for b, name := range names {
			if d.ShadowDiverged&(1<<uint(b)) != 0 {
				diverged = append(diverged, name)
			}
		}
		events := e.sess == nil && sp.Events == "" || e.sess != nil && strings.Contains(sp.Events, "request")
		if sp.ParentID != spans[0].SpanID || sp.Session != e.id || sp.Server != int(d.Server) ||
			sp.Decision != decision || sp.Drops != d.Drops || sp.Shadows != strings.Join(diverged, ",") ||
			math.Float64bits(sp.Regret) != math.Float64bits(d.Regret) || sp.Error || !events {
			o.t.Fatalf("%s: serve span %d %+v; the reference decision %+v (shadows %v)", what, i, sp, d, names)
		}
	}
}

func (e *oracleEntry) shadowNames() []string {
	if e.sess != nil {
		return e.sess.ShadowNames()
	}
	return e.pool.ShadowNames()
}

// state is the reference's GET reply.
func (e *oracleEntry) state() any {
	if e.sess != nil {
		return sessionState(e.id, e.sess)
	}
	return poolState(e.id, e.pool)
}

// create opens the next entry of the rotation, with its reference.
func (o *oracle) create() {
	o.t.Helper()
	k := o.created % (len(oracleSessions) + len(oraclePools))
	o.created++
	e := &oracleEntry{}
	var route string
	var body []byte
	if k < len(oracleSessions) {
		req := oracleSessions[k]
		shadows, err := datacache.WithShadowPolicies(req.Shadows...)
		if err != nil {
			o.t.Fatal(err)
		}
		e.sess, err = datacache.NewSession(req.M, req.Origin, req.Model.toModel(), &datacache.SessionOptions{
			Policy:         req.Policy,
			TraceCap:       o.srv.traceCap,
			SLOWindow:      o.srv.sloWindow,
			ShadowPolicies: shadows,
			ShadowMargin:   o.srv.shadowMargin,
		})
		if err != nil {
			o.t.Fatal(err)
		}
		route, e.m = "/v1/session", req.M
		body, _ = json.Marshal(req)
	} else {
		req := oraclePools[k-len(oracleSessions)]
		shadows, err := datacache.WithShadowPolicies(req.Shadows...)
		if err != nil {
			o.t.Fatal(err)
		}
		e.pool, err = datacache.NewPool(req.M, req.Origin, req.Model.toModel(), &datacache.PoolOptions{
			Session:         datacache.SessionOptions{Policy: req.Policy, ShadowPolicies: shadows, ShadowMargin: -1},
			MaxItems:        req.MaxItems,
			TenantSLOWindow: o.srv.sloWindow,
		})
		if err != nil {
			o.t.Fatal(err)
		}
		route, e.m = "/v1/pool", req.M
		body, _ = json.Marshal(req)
	}
	w := o.call(http.MethodPost, route, string(body), false)
	var st struct {
		ID string `json:"id"`
	}
	if w.Code != http.StatusCreated || json.Unmarshal(w.Body.Bytes(), &st) != nil {
		o.t.Fatalf("create %s: status %d: %s", body, w.Code, w.Body)
	}
	e.id, e.path = st.ID, route+"/"+st.ID
	o.expect("create "+e.id, w, http.StatusCreated, e.state())
	o.open = append(o.open, e)
}

// request draws e's next request: mostly one that advances the entry's
// clock on a server in range, sometimes one a reference refuses (a
// server out of range, a time that goes back).
func (o *oracle) request(e *oracleEntry) (model.ServerID, float64) {
	switch o.rng.Intn(12) {
	case 0:
		return model.ServerID(e.m + 1), e.clock + 0.5
	case 1:
		return model.ServerID(1 + o.rng.Intn(e.m)), e.clock - o.rng.Float64()
	}
	e.clock += 0.05 + 2*o.rng.Float64()
	return model.ServerID(1 + o.rng.Intn(e.m)), e.clock
}

// poolKey draws a pool request's tenant and item.
func (o *oracle) poolKey() (tenant, item string) {
	return oracleTenants[o.rng.Intn(len(oracleTenants))], oracleItems[o.rng.Intn(len(oracleItems))]
}

// jsonNumber renders v as encoding/json does.
func jsonNumber(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// sessionBody renders one session request object; a single request's
// time is "time", a batch item's "t" or its alias.
func (o *oracle) sessionBody(server model.ServerID, t float64, single bool) string {
	key := "time"
	if !single && o.rng.Intn(2) == 0 {
		key = "t"
	}
	if o.rng.Intn(4) == 0 {
		return fmt.Sprintf(`{ %q: %s, "server": %d }`, key, jsonNumber(t), server)
	}
	return fmt.Sprintf(`{"server":%d,%q:%s}`, server, key, jsonNumber(t))
}

// poolBody renders one pool request object.
func (o *oracle) poolBody(tenant, item string, server model.ServerID, t float64) string {
	var b strings.Builder
	b.WriteString("{")
	if tenant != "" || o.rng.Intn(4) == 0 {
		q, _ := json.Marshal(tenant)
		fmt.Fprintf(&b, `"tenant":%s,`, q)
	}
	q, _ := json.Marshal(item)
	key := "t"
	if o.rng.Intn(2) == 0 {
		key = "time"
	}
	fmt.Fprintf(&b, `"item":%s,"server":%d,%q:%s}`, q, server, key, jsonNumber(t))
	return b.String()
}

// single POSTs one request to e's single route.
func (o *oracle) single(e *oracleEntry) {
	o.t.Helper()
	server, t := o.request(e)
	what := "single " + e.id
	if e.sess != nil {
		w := o.call(http.MethodPost, e.path+"/request", o.sessionBody(server, t, true), false)
		if e.closed {
			o.expectError(what, w, http.StatusConflict)
			return
		}
		d, err := e.sess.Serve(server, t)
		if err != nil {
			o.expectError(what, w, http.StatusBadRequest)
			return
		}
		o.expect(what, w, http.StatusOK, SessionDecision{
			ID: e.id, N: e.sess.N(), Server: d.Server, Time: d.Time, Hit: d.Hit, From: d.From,
			Cost: d.Cost, Optimal: d.Optimal, Ratio: d.Ratio, Regret: d.Regret,
		})
		o.expectSpans(what, w, e, []datacache.Decision{d})
		return
	}
	tenant, item := o.poolKey()
	w := o.call(http.MethodPost, e.path+"/request", o.poolBody(tenant, item, server, t), false)
	if e.closed {
		o.expectError(what, w, http.StatusConflict)
		return
	}
	d, err := e.pool.Serve(tenant, item, server, t)
	if err != nil {
		o.expectError(what, w, http.StatusBadRequest)
		return
	}
	o.expect(what, w, http.StatusOK, poolDecisionDTO(e.id, d))
	o.expectSpans(what, w, e, []datacache.Decision{d.Decision})
}

// batch POSTs up to 12 requests to e's batch route, in one of the three
// body shapes.
func (o *oracle) batch(e *oracleEntry) {
	o.t.Helper()
	k := o.rng.Intn(13)
	objs := make([]string, k)
	var sreqs []datacache.Request
	var preqs []datacache.PoolRequest
	for i := range objs {
		server, t := o.request(e)
		if e.sess != nil {
			objs[i] = o.sessionBody(server, t, false)
			sreqs = append(sreqs, datacache.Request{Server: server, Time: t})
			continue
		}
		tenant, item := o.poolKey()
		objs[i] = o.poolBody(tenant, item, server, t)
		preqs = append(preqs, datacache.PoolRequest{Tenant: tenant, Item: item, Server: server, Time: t})
	}
	var body string
	shape := o.rng.Intn(3)
	switch shape {
	case 0:
		body = `{"requests":[` + strings.Join(objs, ",") + "]}"
	case 1:
		body = "[" + strings.Join(objs, ", ") + "]"
	case 2:
		body = strings.Join(objs, "\n") + "\n"
	}
	what := fmt.Sprintf("batch %s (shape %d) %s", e.id, shape, body)
	w := o.call(http.MethodPost, e.path+"/requests", body, shape == 2)
	if e.closed {
		o.expectError(what, w, http.StatusConflict)
		return
	}
	if e.sess != nil {
		res, err := e.sess.ServeBatch(context.Background(), sreqs)
		if err != nil {
			o.t.Fatalf("%s: the reference: %v", what, err)
		}
		o.expect(what, w, http.StatusOK, sessionBatchResponse(e.id, e.sess.N(), res))
		o.expectSpans(what, w, e, res.Decisions)
		return
	}
	res, err := e.pool.ServeBatch(context.Background(), preqs)
	if err != nil {
		o.t.Fatalf("%s: the reference: %v", what, err)
	}
	o.expect(what, w, http.StatusOK, poolBatchResponse(e.id, e.pool.N(), res))
	ds := make([]datacache.Decision, len(res.Decisions))
	for i, d := range res.Decisions {
		ds[i] = d.Decision
	}
	o.expectSpans(what, w, e, ds)
}

// get reads e's state.
func (o *oracle) get(e *oracleEntry) {
	o.t.Helper()
	o.expect("GET "+e.id, o.call(http.MethodGet, e.path, "", false), http.StatusOK, e.state())
}

// delete closes e and forgets it.
func (o *oracle) delete(e *oracleEntry) {
	o.t.Helper()
	w := o.call(http.MethodDelete, e.path, "", false)
	if e.sess != nil {
		sched, err := e.sess.Close()
		if err != nil {
			o.t.Fatal(err)
		}
		o.expect("DELETE "+e.id, w, http.StatusOK, SessionCloseResponse{State: sessionState(e.id, e.sess), Schedule: sched})
	} else {
		if err := e.pool.Close(); err != nil {
			o.t.Fatal(err)
		}
		o.expect("DELETE "+e.id, w, http.StatusOK, poolState(e.id, e.pool))
	}
	for i, x := range o.open {
		if x == e {
			o.open = append(o.open[:i], o.open[i+1:]...)
			break
		}
	}
	o.gone = append(o.gone, e.path)
}

// closeUnderLock closes e's session or pool under its entry lock,
// leaving it registered, as a DELETE racing a serve does, and then
// serves it: both serve routes must answer 409.
func (o *oracle) closeUnderLock(e *oracleEntry) {
	o.t.Helper()
	if e.sess != nil {
		ent, _ := o.srv.sessions.get(e.id)
		_ = ent.lk.lock(context.Background())
		_, err := ent.sess.Close()
		ent.lk.unlock()
		if _, refErr := e.sess.Close(); err != nil || refErr != nil {
			o.t.Fatalf("closing %s: %v, the reference: %v", e.id, err, refErr)
		}
	} else {
		ent, _ := o.srv.pools.get(e.id)
		_ = ent.lk.lock(context.Background())
		err := ent.pool.Close()
		ent.lk.unlock()
		if refErr := e.pool.Close(); err != nil || refErr != nil {
			o.t.Fatalf("closing %s: %v, the reference: %v", e.id, err, refErr)
		}
	}
	e.closed = true
	o.single(e)
	o.batch(e)
}

// serveGone serves, reads and deletes a deleted entry: 404 each time.
func (o *oracle) serveGone() {
	o.t.Helper()
	if len(o.gone) == 0 {
		return
	}
	path := o.gone[o.rng.Intn(len(o.gone))]
	body := `{"server":1,"time":1}`
	if strings.HasPrefix(path, "/v1/pool/") {
		body = `{"item":"a","server":1,"t":1}`
	}
	o.expectError("single "+path, o.call(http.MethodPost, path+"/request", body, false), http.StatusNotFound)
	o.expectError("batch "+path, o.call(http.MethodPost, path+"/requests", "["+body+"]", false), http.StatusNotFound)
	o.expectError("GET "+path, o.call(http.MethodGet, path, "", false), http.StatusNotFound)
	o.expectError("DELETE "+path, o.call(http.MethodDelete, path, "", false), http.StatusNotFound)
}
