package datacache_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"datacache"
	"datacache/internal/recorder"
)

// TestPoolRevivalMatchesFreshSessions is the oracle for recycled item
// state. A bounded pool hands an evicted item's session to the key it
// admits and resets it in place; every incarnation must then behave
// exactly like a fresh NewSession fed the same requests. The template
// turns on every piece of option-gated state (shadows, trace ring, SLO
// tracker, a positive shadow margin, a recorder), many more keys than
// MaxItems keep eviction going, and every policy kind runs through both
// Serve and ServeBatch.
func TestPoolRevivalMatchesFreshSessions(t *testing.T) {
	for _, kind := range datacache.PolicyKinds() {
		spec := kind
		switch kind {
		case "hybrid":
			spec = "hybrid:horizon=8,order=2"
		case "ttl":
			spec = "ttl:window=0.5"
		}
		for _, batch := range []bool{false, true} {
			name := spec + "/serve"
			if batch {
				name = spec + "/batch"
			}
			t.Run(name, func(t *testing.T) { runRevivalOracle(t, spec, batch) })
		}
	}
}

const (
	oracleServers  = 4
	oracleMaxItems = 3
	oracleBatch    = 16
)

// revivalOracle mirrors a pool with one reference Session per
// incarnation, opened fresh when the pool admits the key and closed when
// the pool evicts it, and an LRU over last serves to predict evictions.
type revivalOracle struct {
	t       *testing.T
	cm      datacache.CostModel
	refOpts datacache.SessionOptions
	pool    *datacache.Pool
	live    map[datacache.ItemKey]*datacache.Session   // the live incarnation's reference
	retired map[datacache.ItemKey][]*datacache.Session // closed references, oldest first
	stamp   map[datacache.ItemKey]int                  // last-serve order of live keys
	clock   int
	incs    int // incarnations opened
}

func runRevivalOracle(t *testing.T, spec string, batch bool) {
	shadows, err := datacache.WithShadowPolicies("ttl:window=1", "sc:epoch=3", "migrate", "replicate")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := recorder.NewWriter(recorder.Options{Dir: dir, Source: "test"})
	if err != nil {
		t.Fatal(err)
	}
	tpl := datacache.SessionOptions{
		Policy:         spec,
		TraceCap:       24,
		SLOWindow:      8,
		ShadowPolicies: shadows,
		ShadowMargin:   0.05,
		Recorder:       w,
		RecordSession:  "pl-1",
	}
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	pool, err := datacache.NewPool(oracleServers, 1, cm, &datacache.PoolOptions{Session: tpl, MaxItems: oracleMaxItems})
	if err != nil {
		t.Fatal(err)
	}
	o := &revivalOracle{
		t: t, cm: cm, refOpts: tpl, pool: pool,
		live:    map[datacache.ItemKey]*datacache.Session{},
		retired: map[datacache.ItemKey][]*datacache.Session{},
		stamp:   map[datacache.ItemKey]int{},
	}
	o.refOpts.Recorder = nil

	reqs := oracleRequests(rand.New(rand.NewSource(1)))
	if batch {
		for i := 0; i < len(reqs); i += oracleBatch {
			o.serveBatch(reqs[i:min(i+oracleBatch, len(reqs))])
		}
	} else {
		for _, r := range reqs {
			o.serve(r)
		}
	}
	if o.incs <= 4*oracleMaxItems {
		t.Fatalf("only %d incarnations: the workload does not churn", o.incs)
	}

	// Closing the pool retires every live item; the totals then cover
	// closed references only.
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	for key, ref := range o.live {
		if _, err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		o.retired[key] = append(o.retired[key], ref)
		delete(o.live, key)
	}
	o.checkTotals()

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := datacache.ReplayPath(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BitwiseOK || rep.Records != len(reqs) || len(rep.Streams) != o.incs {
		t.Fatalf("replay: bitwise %v, %d records (want %d), %d streams (want %d)",
			rep.BitwiseOK, rep.Records, len(reqs), len(rep.Streams), o.incs)
	}
}

// oracleRequests draws a churning keyspace: 12 keys over 3 tenants,
// runs of repeated keys so some incarnations grow long enough for the
// planner to plan, and per-key server cycles with noise.
func oracleRequests(rng *rand.Rand) []datacache.PoolRequest {
	tenants := []string{"acme", "globex", ""}
	items := []string{"a", "b", "c", "d"}
	var out []datacache.PoolRequest
	cycle := map[int]int{}
	k, tm := 0, 0.0
	for i := 0; i < 600; i++ {
		if rng.Float64() > 0.7 {
			k = rng.Intn(len(tenants) * len(items))
		}
		tm += 0.05 + rng.ExpFloat64()*0.3
		cycle[k]++
		server := 1 + cycle[k]%oracleServers
		if rng.Float64() < 0.2 {
			server = 1 + rng.Intn(oracleServers)
		}
		out = append(out, datacache.PoolRequest{
			Tenant: tenants[k%len(tenants)],
			Item:   items[k/len(tenants)],
			Server: datacache.ServerID(server),
			Time:   tm,
		})
	}
	return out
}

// admit mirrors the pool's admission of key: when the key holds no live
// state it opens a fresh reference, first retiring the least recently
// served live key if the bound is full. It returns the evicted key.
func (o *revivalOracle) admit(key datacache.ItemKey) (victim datacache.ItemKey, evicted bool) {
	if o.live[key] != nil {
		return victim, false
	}
	if len(o.live) == oracleMaxItems {
		first := true
		for k, at := range o.stamp {
			if first || at < o.stamp[victim] {
				victim, first = k, false
			}
		}
		evicted = true
	}
	ref, err := datacache.NewSession(oracleServers, 1, o.cm, &o.refOpts)
	if err != nil {
		o.t.Fatal(err)
	}
	o.live[key] = ref
	o.incs++
	return victim, evicted
}

// retire closes the victim's reference and moves it to the retired list.
func (o *revivalOracle) retire(victim datacache.ItemKey) {
	ref := o.live[victim]
	if _, err := ref.Close(); err != nil {
		o.t.Fatal(err)
	}
	o.retired[victim] = append(o.retired[victim], ref)
	delete(o.live, victim)
	delete(o.stamp, victim)
}

// refServe serves r on its key's reference and stamps the key.
func (o *revivalOracle) refServe(r datacache.PoolRequest) datacache.Decision {
	key := datacache.ItemKey{Tenant: r.Tenant, Item: r.Item}
	d, err := o.live[key].Serve(r.Server, r.Time)
	if err != nil {
		o.t.Fatal(err)
	}
	o.clock++
	o.stamp[key] = o.clock
	return d
}

// serve drives one request through Pool.Serve. Before an evicting
// request it closes the victim's session itself — eviction starts with
// that same Close, and Close is idempotent — so the retired state can be
// compared before the pool resets the session for the admitted key.
func (o *revivalOracle) serve(r datacache.PoolRequest) {
	key := datacache.ItemKey{Tenant: r.Tenant, Item: r.Item}
	revived := o.live[key] == nil && len(o.retired[key]) > 0
	victim, evicted := o.admit(key)
	var handed *datacache.Session
	if evicted {
		handed = o.pool.ItemSession(victim.Tenant, victim.Item)
		if handed == nil {
			o.t.Fatalf("victim %v holds no live session", victim)
		}
		if _, err := handed.Close(); err != nil {
			o.t.Fatal(err)
		}
		ref := o.live[victim]
		if _, err := ref.Close(); err != nil {
			o.t.Fatal(err)
		}
		compareSessions(o.t, "retired "+victim.String(), handed, ref)
		o.retire(victim)
	}
	pd, err := o.pool.Serve(r.Tenant, r.Item, r.Server, r.Time)
	if err != nil {
		o.t.Fatal(err)
	}
	want := o.refServe(r)
	if !sameDecision(pd.Decision, want) || pd.Revived != revived {
		o.t.Fatalf("%v at t=%v: pool %+v (revived %v), fresh session %+v (revived %v)",
			key, r.Time, pd.Decision, pd.Revived, want, revived)
	}
	if evicted {
		if got := o.pool.ItemSession(key.Tenant, key.Item); got != handed {
			o.t.Fatalf("%v was not handed the session evicted from %v", key, victim)
		}
		if o.pool.ItemSession(victim.Tenant, victim.Item) != nil {
			o.t.Fatalf("evicted key %v still holds a session", victim)
		}
		o.checkItem(victim)
	}
	o.checkItem(key)
}

// serveBatch drives one batch through Pool.ServeBatch. The references
// serve it in the pool's grouped order (keys by first appearance); after
// the batch every live session must equal its reference.
func (o *revivalOracle) serveBatch(batch []datacache.PoolRequest) {
	var order []datacache.ItemKey
	groups := map[datacache.ItemKey][]int{}
	for i, r := range batch {
		key := datacache.ItemKey{Tenant: r.Tenant, Item: r.Item}
		if groups[key] == nil {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	want := make([]datacache.Decision, len(batch))
	for _, key := range order {
		for _, i := range groups[key] {
			if victim, evicted := o.admit(key); evicted {
				o.retire(victim)
			}
			want[i] = o.refServe(batch[i])
		}
	}
	res, err := o.pool.ServeBatch(context.Background(), batch)
	if err != nil || res.FirstRejected >= 0 || len(res.Decisions) != len(batch) {
		o.t.Fatalf("batch: err %v, rejected at %d (%s), %d decisions", err, res.FirstRejected, res.RejectReason, len(res.Decisions))
	}
	for i, pd := range res.Decisions {
		if !sameDecision(pd.Decision, want[i]) {
			o.t.Fatalf("batch request %d: pool %+v, fresh session %+v", i, pd.Decision, want[i])
		}
	}
	for key, ref := range o.live {
		got := o.pool.ItemSession(key.Tenant, key.Item)
		if got == nil {
			o.t.Fatalf("live key %v holds no session", key)
		}
		compareSessions(o.t, "live "+key.String(), got, ref)
		o.checkItem(key)
	}
	for key := range o.retired {
		o.checkItem(key)
	}
	if o.pool.LiveItems() != len(o.live) {
		o.t.Fatalf("pool holds %d live items, the mirror %d", o.pool.LiveItems(), len(o.live))
	}
}

// checkItem compares one key's cross-incarnation line with the sums over
// its references, added in the order the pool retires them.
func (o *revivalOracle) checkItem(key datacache.ItemKey) {
	got, ok := o.pool.Item(key.Tenant, key.Item)
	if !ok {
		o.t.Fatalf("item %v unknown to the pool", key)
	}
	want := datacache.ItemStats{Tenant: key.Tenant, Item: key.Item, Revivals: len(o.retired[key]), LastServed: got.LastServed}
	refs := o.retired[key]
	if ref := o.live[key]; ref != nil {
		refs = append(slices.Clip(refs), ref)
		want.Live = true
		want.LiveCopies = ref.LiveCopies()
	} else {
		want.Revivals--
	}
	for _, ref := range refs {
		want.N += ref.N()
		want.Hits += ref.Hits()
		want.Transfers += ref.Transfers()
		want.Cost += ref.Cost()
		want.Optimal += ref.OptimalCost()
	}
	want.Ratio = got.Ratio
	want.Regret = want.Cost - want.Optimal
	if !reflect.DeepEqual(got, want) {
		o.t.Fatalf("item %v: pool %+v, references %+v", key, got, want)
	}
}

// checkTotals compares the pool's aggregate counters, which fold every
// retired incarnation, with the sums over all closed references.
func (o *revivalOracle) checkTotals() {
	rep := o.pool.ShadowReport()
	want := make([]datacache.ShadowStanding, len(rep.Standings))
	for _, refs := range o.retired {
		for _, ref := range refs {
			want[0].Hits += ref.Hits()
			want[0].Transfers += ref.Transfers()
			want[0].Drops += ref.Drops()
			for i := range ref.ShadowNames() {
				tot := ref.ShadowTotals(i)
				want[i+1].Hits += tot.Hits
				want[i+1].Transfers += tot.Transfers
				want[i+1].Drops += tot.Drops
				want[i+1].Divergence += tot.Divergence
			}
		}
	}
	for i, got := range rep.Standings {
		if got.Hits != want[i].Hits || got.Transfers != want[i].Transfers ||
			got.Drops != want[i].Drops || got.Divergence != want[i].Divergence {
			o.t.Errorf("pool standing %s: hits/transfers/drops/divergence %d/%d/%d/%d, references %d/%d/%d/%d",
				got.Policy, got.Hits, got.Transfers, got.Drops, got.Divergence,
				want[i].Hits, want[i].Transfers, want[i].Drops, want[i].Divergence)
		}
	}
}

// sameDecision compares two decisions bit for bit.
func sameDecision(a, b datacache.Decision) bool {
	bits := func(d datacache.Decision) [5]uint64 {
		return [5]uint64{math.Float64bits(d.Time), math.Float64bits(d.Cost), math.Float64bits(d.Optimal),
			math.Float64bits(d.Ratio), math.Float64bits(d.Regret)}
	}
	return a == b && bits(a) == bits(b)
}

// compareSessions checks every readout of a pool item's session against
// a fresh session's.
func compareSessions(t *testing.T, where string, got, want *datacache.Session) {
	t.Helper()
	type counts struct{ N, Hits, Transfers, Drops, LiveCopies, TraceDropped int }
	count := func(s *datacache.Session) counts {
		return counts{s.N(), s.Hits(), s.Transfers(), s.Drops(), s.LiveCopies(), s.TraceDropped()}
	}
	if g, w := count(got), count(want); g != w {
		t.Fatalf("%s: counts %+v, fresh session %+v", where, g, w)
	}
	if math.Float64bits(got.Cost()) != math.Float64bits(want.Cost()) ||
		math.Float64bits(got.OptimalCost()) != math.Float64bits(want.OptimalCost()) {
		t.Fatalf("%s: cost %v / optimum %v, fresh session %v / %v", where, got.Cost(), got.OptimalCost(), want.Cost(), want.OptimalCost())
	}
	if got.Closed() != want.Closed() || got.Policy() != want.Policy() {
		t.Fatalf("%s: closed %v policy %q, fresh session %v %q", where, got.Closed(), got.Policy(), want.Closed(), want.Policy())
	}
	if !reflect.DeepEqual(got.CostBreakdown(), want.CostBreakdown()) {
		t.Fatalf("%s: cost breakdown %+v, fresh session %+v", where, got.CostBreakdown(), want.CostBreakdown())
	}
	if !reflect.DeepEqual(got.Schedule(), want.Schedule()) {
		t.Fatalf("%s: schedule\n%+v\nfresh session\n%+v", where, got.Schedule(), want.Schedule())
	}
	for i := range want.ShadowNames() {
		if g, w := got.ShadowTotals(i), want.ShadowTotals(i); g != w {
			t.Fatalf("%s: shadow %s totals %+v, fresh session %+v", where, want.ShadowNames()[i], g, w)
		}
	}
	if !reflect.DeepEqual(got.ShadowReport(), want.ShadowReport()) {
		t.Fatalf("%s: shadow report %+v, fresh session %+v", where, got.ShadowReport(), want.ShadowReport())
	}
	if !slices.Equal(got.Trace(), want.Trace()) {
		t.Fatalf("%s: trace\n%v\nfresh session\n%v", where, got.Trace(), want.Trace())
	}
	if !reflect.DeepEqual(got.SLO().Snapshot(), want.SLO().Snapshot()) {
		t.Fatalf("%s: SLO %+v, fresh session %+v", where, got.SLO().Snapshot(), want.SLO().Snapshot())
	}
	if !reflect.DeepEqual(got.Alerts(), want.Alerts()) {
		t.Fatalf("%s: alerts %+v, fresh session %+v", where, got.Alerts(), want.Alerts())
	}
	gp, gok := got.PlannerStats()
	wp, wok := want.PlannerStats()
	if gp != wp || gok != wok {
		t.Fatalf("%s: planner %+v, fresh session %+v", where, gp, wp)
	}
}
