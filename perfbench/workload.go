package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"datacache"
	"datacache/internal/service"
	"datacache/internal/trajectory"
	"datacache/internal/workload"
)

// Every workload runs on m = 16 servers under μ = 1 (caching rate) and
// λ = 2 (transfer cost), so SC's speculative window is Δt = λ/μ = 2.
const (
	numServers = 16
	batchSize  = 64
	deltaT     = 2.0 // λ/μ
)

var costModel = datacache.CostModel{Mu: 1, Lambda: 2}

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlSessionLong     = "session-long"
	wlPoolChurn       = "pool-churn"
	wlSessionObserved = "session-observed"
)

var workloadNames = []string{wlSessionLong, wlPoolChurn, wlSessionObserved}

// session-observed configuration: the live policy and its shadow panel.
const observedPolicy = "hybrid:horizon=8,order=2"

var observedShadows = []string{"ttl:window=1", "sc:epoch=16", "migrate", "replicate"}

// sizes fixes how much work one pass of each workload holds. The
// benchmark runs fullSizes; the package tests run smallSizes.
type sizes struct {
	longWarm    int // session-long: requests served through the batch endpoint in set-up
	longSingles int // session-long: requests then served one call each

	poolBatches  int // pool-churn: 64-request batches per pass
	poolMaxItems int // pool-churn: the pool's live-engine bound
	poolKeys     int // pool-churn: distinct (tenant, item) keys

	obsSessions int // session-observed: sessions per pass
	obsMinN     int // session-observed: fewest requests in one session
	obsMaxN     int // session-observed: most requests in one session
	obsScrape   int // session-observed: serve calls between two GET /metrics
}

var fullSizes = sizes{
	longWarm:     2048,
	longSingles:  1024,
	poolBatches:  128,
	poolMaxItems: 256,
	poolKeys:     1024,
	obsSessions:  48,
	obsMinN:      20,
	obsMaxN:      110,
	obsScrape:    256,
}

var smallSizes = sizes{
	longWarm:     256,
	longSingles:  64,
	poolBatches:  8,
	poolMaxItems: 16,
	poolKeys:     64,
	obsSessions:  4,
	obsMinN:      10,
	obsMaxN:      30,
	obsScrape:    32,
}

// unit is one session or pool, driven from create to close. A pass of a
// workload is its units in order.
type unit struct {
	pool   bool
	create []byte // POST /v1/session or /v1/pool body

	// Session units: the request sequence; the first warm requests go
	// through the batch endpoint, the rest through the single endpoint.
	seq  *datacache.Sequence
	warm int
	// Pool units: the item-keyed requests, in batch order.
	poolReqs []datacache.PoolRequest

	batches [][]byte // pre-encoded batch bodies, in call order
	singles [][]byte // pre-encoded single-request bodies, in call order
}

// requests returns how many decisions the unit asks the server for.
func (u *unit) requests() int {
	if u.pool {
		return len(u.poolReqs)
	}
	return u.seq.N()
}

// spec is one workload's generated inputs and server configuration.
type spec struct {
	name  string
	seed  int64
	units []*unit
	// setupSplit: set-up creates the first unit and serves its batches,
	// and the timed phase goes on with its single requests (session-long).
	// Otherwise set-up serves one whole pass as warm-up traffic.
	setupSplit  bool
	scrapeEvery int // serve calls between two GET /metrics (0: none)
	recorder    bool
	policy      string
	shadows     []string
	maxItems    int
}

// requestsPerPass returns the decisions one pass serves.
func (s *spec) requestsPerPass() int {
	n := 0
	for _, u := range s.units {
		n += u.requests()
	}
	return n
}

// rngFor derives an independent random stream from (workload, seed, part):
// every input is a pure function of the workload name and the seed.
func rngFor(name string, seed int64, part int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", name, seed, part)
	return rand.New(rand.NewSource(int64(h.Sum64() & math.MaxInt64)))
}

// generate builds the named workload's inputs for one seed.
func generate(name string, seed int64, sz sizes) (*spec, error) {
	switch name {
	case wlSessionLong:
		return genSessionLong(seed, sz), nil
	case wlPoolChurn:
		return genPoolChurn(seed, sz), nil
	case wlSessionObserved:
		return genSessionObserved(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// genSessionLong: one canonical SC session, Zipf(1.2) server popularity,
// mean gap 0.5 < Δt. The batch-warmed prefix makes every later request
// pay the session-length terms of the serve path.
func genSessionLong(seed int64, sz sizes) *spec {
	n := sz.longWarm + sz.longSingles
	seq := workload.Zipf{M: numServers, S: 1.2, MeanGap: 0.5}.Generate(rngFor(wlSessionLong, seed, 0), n)
	u := sessionUnit(seq, sz.longWarm, "sc", nil)
	return &spec{name: wlSessionLong, seed: seed, units: []*unit{u}, setupSplit: true, policy: "sc"}
}

// genPoolChurn: one pool of MaxItems live engines fed 64-request
// batches whose keys are uniform over a keyspace four times larger, so
// LRU eviction and revival never stop. The global mean gap is Δt over
// the keyspace size, which makes each key's mean gap Δt.
func genPoolChurn(seed int64, sz sizes) *spec {
	rng := rngFor(wlPoolChurn, seed, 0)
	const tenants = 4
	meanGap := deltaT / float64(sz.poolKeys)
	reqs := make([]datacache.PoolRequest, 0, sz.poolBatches*batchSize)
	t := 0.0
	for i := 0; i < sz.poolBatches*batchSize; i++ {
		t += math.Max(1e-6, rng.ExpFloat64()*meanGap)
		k := rng.Intn(sz.poolKeys)
		reqs = append(reqs, datacache.PoolRequest{
			Tenant: "t" + strconv.Itoa(k%tenants),
			Item:   "i" + strconv.Itoa(k/tenants),
			Server: datacache.ServerID(1 + rng.Intn(numServers)),
			Time:   t,
		})
	}
	u := &unit{pool: true, poolReqs: reqs, create: poolCreateBody(sz.poolMaxItems)}
	for i := 0; i < len(reqs); i += batchSize {
		u.batches = append(u.batches, encodePoolBatch(reqs[i:min(i+batchSize, len(reqs))]))
	}
	return &spec{name: wlPoolChurn, seed: seed, units: []*unit{u}, policy: "sc", maxItems: sz.poolMaxItems}
}

// genSessionObserved: short sessions, one per seeded MarkovCells mobile
// user, each created, served one request per call and closed, under the
// hybrid planner with the four-policy shadow panel and flight recording.
func genSessionObserved(seed int64, sz sizes) *spec {
	s := &spec{
		name: wlSessionObserved, seed: seed, scrapeEvery: sz.obsScrape, recorder: true,
		policy: observedPolicy, shadows: observedShadows,
	}
	field := trajectory.GridField(numServers, 4)
	for j := 0; j < sz.obsSessions; j++ {
		rng := rngFor(wlSessionObserved, seed, j)
		n := sz.obsMinN + rng.Intn(sz.obsMaxN-sz.obsMinN+1)
		seq := trajectory.MarkovCells{Field: field, Stay: 0.85, Neighbors: 2, ReqGap: 1}.Generate(rng, n)
		s.units = append(s.units, sessionUnit(seq, 0, observedPolicy, observedShadows))
	}
	return s
}

func sessionUnit(seq *datacache.Sequence, warm int, policy string, shadows []string) *unit {
	u := &unit{seq: seq, warm: warm, create: sessionCreateBody(policy, shadows)}
	for i := 0; i < warm; i += batchSize {
		u.batches = append(u.batches, encodeBatch(seq.Requests[i:min(i+batchSize, warm)]))
	}
	for _, r := range seq.Requests[warm:] {
		u.singles = append(u.singles, encodeSingle(r))
	}
	return u
}

// Bodies are the service's own request DTOs, encoded once up front.
// encoding/json writes floats in their shortest round-trip form, so the
// server parses back exactly the generated bits.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // unreachable: the DTOs hold only strings and numbers
	}
	return b
}

func encodeSingle(r datacache.Request) []byte {
	return mustJSON(service.StreamAppendRequest{Server: r.Server, Time: r.Time})
}

func encodeBatch(rs []datacache.Request) []byte {
	items := make([]service.BatchRequestItem, len(rs))
	for i, r := range rs {
		items[i] = service.BatchRequestItem{Server: r.Server, T: r.Time}
	}
	return mustJSON(service.SessionBatchRequest{Requests: items})
}

func encodePoolBatch(rs []datacache.PoolRequest) []byte {
	items := make([]service.PoolServeRequest, len(rs))
	for i, r := range rs {
		items[i] = service.PoolServeRequest{Tenant: r.Tenant, Item: r.Item, Server: r.Server, T: r.Time}
	}
	return mustJSON(service.PoolBatchRequestBody{Requests: items})
}

var modelDTO = service.CostModelDTO{Mu: costModel.Mu, Lambda: costModel.Lambda}

func sessionCreateBody(policy string, shadows []string) []byte {
	return mustJSON(service.SessionCreateRequest{M: numServers, Origin: 1, Model: modelDTO, Policy: policy, Shadows: shadows})
}

func poolCreateBody(maxItems int) []byte {
	return mustJSON(service.PoolCreateRequest{M: numServers, Origin: 1, Model: modelDTO, MaxItems: maxItems})
}
