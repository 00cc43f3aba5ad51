package datacache_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"datacache"
	"datacache/internal/offline"
)

// shadowEquivalenceCases pairs each live policy configuration with the
// shadow spec that runs the identical decider.
var shadowEquivalenceCases = []struct {
	name string
	opts datacache.SessionOptions
	spec string
}{
	{"sc", datacache.SessionOptions{}, "sc"},
	{"sc-epoch", datacache.SessionOptions{Policy: "sc:epoch=3"}, "sc:epoch=3"},
	{"ttl", datacache.SessionOptions{Policy: "ttl:window=0.7"}, "ttl:window=0.7"},
	{"adaptive", datacache.SessionOptions{Policy: "adaptive"}, "adaptive"},
	{"migrate", datacache.SessionOptions{Policy: "migrate"}, "migrate"},
	{"replicate", datacache.SessionOptions{Policy: "replicate"}, "replicate"},
}

// TestShadowSelfEquivalence is the counterfactual-accounting acceptance
// check: a shadow running the live policy's own decider must reproduce
// Session.Cost() bit for bit — on the paper's Fig. 6 instance and on
// random non-dyadic workloads, through both the single-serve and the
// batch path. Any drift here means the shadow ledger is not the engine.
func TestShadowSelfEquivalence(t *testing.T) {
	fig6, fig6cm := offline.Fig6Instance()
	for _, tc := range shadowEquivalenceCases {
		t.Run(tc.name, func(t *testing.T) {
			type workload struct {
				name string
				seq  *datacache.Sequence
				cm   datacache.CostModel
			}
			wls := []workload{{"fig6", fig6, fig6cm}}
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				wls = append(wls, workload{"random", randomSequence(rng, 5, 60), datacache.CostModel{Mu: 1, Lambda: 2}})
			}
			for _, wl := range wls {
				for _, batch := range []bool{false, true} {
					opts := tc.opts
					shadows, err := datacache.WithShadowPolicies(tc.spec, "replicate")
					if err != nil {
						t.Fatal(err)
					}
					if tc.name == "replicate" {
						// The live policy already is replicate; a second
						// replicate shadow would duplicate the label.
						shadows = shadows[:1]
					}
					opts.ShadowPolicies = shadows
					sess, err := datacache.NewSession(wl.seq.M, wl.seq.Origin, wl.cm, &opts)
					if err != nil {
						t.Fatal(err)
					}
					if batch {
						if _, err := sess.ServeBatch(context.Background(), wl.seq.Requests); err != nil {
							t.Fatal(err)
						}
					} else {
						for _, r := range wl.seq.Requests {
							if _, err := sess.Serve(r.Server, r.Time); err != nil {
								t.Fatal(err)
							}
						}
					}
					rep := sess.ShadowReport()
					if rep == nil {
						t.Fatal("shadowed session returned nil report")
					}
					liveRow, twinRow := rep.Standings[0], rep.Standings[1]
					if !liveRow.Live {
						t.Fatal("first standing is not the live row")
					}
					if twinRow.Err != "" {
						t.Fatalf("%s/batch=%v: twin shadow died: %s", wl.name, batch, twinRow.Err)
					}
					if twinRow.Cost != sess.Cost() {
						t.Errorf("%s/batch=%v: twin shadow cost %v != Session.Cost %v (must be bitwise equal)",
							wl.name, batch, twinRow.Cost, sess.Cost())
					}
					if liveRow.Cost != sess.Cost() {
						t.Errorf("%s/batch=%v: live row cost %v != Session.Cost %v", wl.name, batch, liveRow.Cost, sess.Cost())
					}
					if twinRow.Hits != sess.Hits() || twinRow.Transfers != sess.Transfers() {
						t.Errorf("%s/batch=%v: twin hits/transfers %d/%d != live %d/%d",
							wl.name, batch, twinRow.Hits, twinRow.Transfers, sess.Hits(), sess.Transfers())
					}
					if twinRow.Divergence != 0 {
						t.Errorf("%s/batch=%v: twin divergence %d, want 0", wl.name, batch, twinRow.Divergence)
					}
					// CostLive prices the same ledger through the O(M)
					// accumulator path; it must agree to fp accumulation order.
					if got, want := sess.ShadowCostLive(0), sess.CostLive(); math.Abs(got-want) > 1e-9*(1+want) {
						t.Errorf("%s/batch=%v: twin CostLive %v != live CostLive %v", wl.name, batch, got, want)
					}
				}
			}
		})
	}
}

// TestParseShadowPolicy pins shadow-list parsing: WithShadowPolicies
// accepts exactly the PolicySpec grammar, renders each entry
// canonically, refuses the whole list when one entry is bad, and leaves
// the duplicate-label check to session create.
func TestParseShadowPolicy(t *testing.T) {
	good := map[string]string{
		"sc":             "sc",
		"sc:epoch=16":    "sc:epoch=16",
		"sc:window=1.5":  "sc:window=1.5",
		"ttl:window=0.5": "ttl:window=0.5",
		"adaptive":       "adaptive",
		"migrate":        "migrate",
		"replicate":      "replicate",
	}
	for spec, want := range good {
		sps, err := datacache.WithShadowPolicies(spec)
		if err != nil {
			t.Errorf("WithShadowPolicies(%q): %v", spec, err)
			continue
		}
		if len(sps) != 1 {
			t.Fatalf("WithShadowPolicies(%q) returned %d specs, want 1", spec, len(sps))
		}
		if got := sps[0].Spec(); got != want {
			t.Errorf("WithShadowPolicies(%q)[0].Spec() = %q, want %q", spec, got, want)
		}
	}
	bad := []string{"", "ttl", "ttl:window=0", "sc:epoch=0", "sc:window=-1", "sc:bogus=1", "sc:epoch", "warp"}
	for _, spec := range bad {
		if _, err := datacache.WithShadowPolicies(spec); err == nil {
			t.Errorf("WithShadowPolicies(%q) should fail", spec)
		}
		if _, err := datacache.WithShadowPolicies("sc", spec, "migrate"); err == nil {
			t.Errorf("WithShadowPolicies(sc, %q, migrate) should fail", spec)
		}
	}
	// Parsing a duplicate succeeds; the duplicate label is rejected at
	// session create.
	if _, err := datacache.NewSession(3, 1, datacache.Unit, &datacache.SessionOptions{
		ShadowPolicies: mustShadows(t, "migrate", "migrate"),
	}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate shadow labels at create: err = %v, want duplicate-label error", err)
	}
}

func mustShadows(t *testing.T, specs ...string) []datacache.PolicySpec {
	t.Helper()
	sps, err := datacache.WithShadowPolicies(specs...)
	if err != nil {
		t.Fatal(err)
	}
	return sps
}

// TestShadowReportStandings checks the leaderboard semantics on a
// workload where the policies genuinely differ: divergence counts are
// positive, Best marks the minimum-cost row, and the decision bitmask
// maps bit i to ShadowNames()[i].
func TestShadowReportStandings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := randomSequence(rng, 5, 80)
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	sess, err := datacache.NewSession(seq.M, seq.Origin, cm, &datacache.SessionOptions{
		ShadowPolicies: mustShadows(t, "migrate", "replicate", "ttl:window=0.3"),
	})
	if err != nil {
		t.Fatal(err)
	}
	names := sess.ShadowNames()
	if len(names) != 3 || names[0] != "migrate" || names[2] != "ttl:window=0.3" {
		t.Fatalf("ShadowNames = %v", names)
	}
	maskDiverged := make([]int, len(names))
	for _, r := range seq.Requests {
		d, err := sess.Serve(r.Server, r.Time)
		if err != nil {
			t.Fatal(err)
		}
		for i := range names {
			if d.ShadowDiverged&(1<<uint(i)) != 0 {
				maskDiverged[i]++
			}
		}
	}
	rep := sess.ShadowReport()
	if rep == nil {
		t.Fatal("nil report")
	}
	if len(rep.Standings) != 4 {
		t.Fatalf("standings = %d rows, want live + 3", len(rep.Standings))
	}
	bestRows := 0
	minCost := math.Inf(1)
	for _, row := range rep.Standings {
		if row.Cost < minCost {
			minCost = row.Cost
		}
		if row.Best {
			bestRows++
			if row.Policy != rep.Best {
				t.Errorf("Best label %q != starred row %q", rep.Best, row.Policy)
			}
		}
	}
	if bestRows != 1 {
		t.Errorf("%d rows marked best, want exactly 1", bestRows)
	}
	for _, row := range rep.Standings {
		if row.Best && row.Cost != minCost {
			t.Errorf("best row cost %v != minimum %v", row.Cost, minCost)
		}
	}
	// Per-decision mask counts must equal the report's divergence column.
	for i, name := range names {
		var row datacache.ShadowStanding
		for _, r := range rep.Standings {
			if !r.Live && r.Policy == name {
				row = r
			}
		}
		if row.Divergence != maskDiverged[i] {
			t.Errorf("shadow %q divergence %d != %d masked decisions", name, row.Divergence, maskDiverged[i])
		}
	}
	// Each shadow's exact cost must match an independent batch run of the
	// same policy over the same sequence.
	indep := map[string]datacache.Policy{
		"migrate":        datacache.AlwaysMigrate{},
		"replicate":      datacache.KeepEverywhere{},
		"ttl:window=0.3": datacache.SpeculativeCaching{Window: 0.3},
	}
	for name, pol := range indep {
		run, err := datacache.Serve(pol, seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rep.Standings {
			if row.Live || row.Policy != name {
				continue
			}
			if row.Cost != run.Stats.Cost {
				t.Errorf("shadow %q cost %v != independent batch run %v", name, row.Cost, run.Stats.Cost)
			}
		}
	}
	if sess.Shadows() == nil {
		t.Error("Shadows() returned nil on a shadowed session")
	}
}

// TestShadowBeatsLiveAlert drives a live policy that a shadow clearly
// dominates (replicate holding M copies vs migrate holding one, with
// holding-dominated costs) and checks the shadow_beats_live rule fires,
// the transition hook sees it, and Alerts() merges it in.
func TestShadowBeatsLiveAlert(t *testing.T) {
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	sess, err := datacache.NewSession(6, 1, cm, &datacache.SessionOptions{
		Policy:         "replicate",
		ShadowPolicies: mustShadows(t, "migrate"),
		ShadowWindow:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fired bool
	sess.SetShadowTransitionHook(func(rule datacache.AlertRule, from, to datacache.AlertState, at, v float64) {
		if rule.Name != datacache.ShadowAlertRuleName {
			t.Errorf("hook rule %q, want %q", rule.Name, datacache.ShadowAlertRuleName)
		}
		if to == datacache.AlertFiring {
			fired = true
		}
	})
	// Walk the request around the ring with big gaps: replicate pays
	// holding on every copy it has accumulated, migrate on exactly one.
	for i := 0; i < 30; i++ {
		srv := datacache.ServerID(1 + (i % 6))
		if _, err := sess.Serve(srv, float64(i+1)*10); err != nil {
			t.Fatal(err)
		}
	}
	a, ok := sess.ShadowAlert()
	if !ok {
		t.Fatal("shadowed session with default margin should track the alert")
	}
	if a.State != datacache.AlertFiring {
		t.Fatalf("shadow_beats_live state = %v (value %.3f), want firing", a.State, a.Value)
	}
	if !fired {
		t.Error("transition hook never saw the firing step")
	}
	found := false
	for _, al := range sess.Alerts() {
		if al.Rule.Name == datacache.ShadowAlertRuleName {
			found = true
		}
	}
	if !found {
		t.Error("Alerts() does not include shadow_beats_live")
	}
	rep := sess.ShadowReport()
	if rep.Alert == nil || rep.Alert.Rule.Name != datacache.ShadowAlertRuleName {
		t.Error("ShadowReport.Alert missing")
	}

	// A negative margin disables the rule entirely.
	quiet, err := datacache.NewSession(6, 1, cm, &datacache.SessionOptions{
		Policy:         "replicate",
		ShadowPolicies: mustShadows(t, "migrate"),
		ShadowMargin:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := quiet.ShadowAlert(); ok {
		t.Error("ShadowMargin < 0 should disable the alert")
	}
}

// TestPoolShadowAggregation checks the pool-wide counterfactual ledger:
// a shadow running the live policy tracks Pool.Cost() exactly (dyadic
// times), survives LRU eviction of item engines, and a divergent shadow
// accumulates pool-wide divergence.
func TestPoolShadowAggregation(t *testing.T) {
	pool, err := datacache.NewPool(4, 1, datacache.Unit, &datacache.PoolOptions{
		Session: datacache.SessionOptions{
			ShadowPolicies: mustShadows(t, "sc", "replicate"),
			ShadowMargin:   -1,
		},
		MaxItems: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	items := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		item := items[rng.Intn(len(items))]
		srv := datacache.ServerID(1 + rng.Intn(4))
		if _, err := pool.Serve("", item, srv, float64(i+1)*0.25); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Evictions() == 0 {
		t.Fatal("workload should churn the MaxItems=2 bound")
	}
	names := pool.ShadowNames()
	if len(names) != 2 || names[0] != "sc" {
		t.Fatalf("pool ShadowNames = %v", names)
	}
	costs := pool.ShadowCosts()
	if math.Abs(costs[0]-pool.Cost()) > 1e-9 {
		t.Errorf("pool twin-shadow cost %v != pool cost %v (must survive eviction)", costs[0], pool.Cost())
	}
	rep := pool.ShadowReport()
	if rep == nil {
		t.Fatal("nil pool shadow report")
	}
	if len(rep.Standings) != 3 {
		t.Fatalf("pool standings = %d rows, want live + 2", len(rep.Standings))
	}
	live := rep.Standings[0]
	if !live.Live || math.Abs(live.Cost-pool.Cost()) > 1e-12 {
		t.Errorf("live row %+v does not reflect pool cost %v", live, pool.Cost())
	}
	var twin, repl datacache.ShadowStanding
	for _, row := range rep.Standings[1:] {
		switch row.Policy {
		case "sc":
			twin = row
		case "replicate":
			repl = row
		}
	}
	if math.Abs(twin.Cost-pool.Cost()) > 1e-9 {
		t.Errorf("twin row cost %v != pool cost %v", twin.Cost, pool.Cost())
	}
	if twin.Divergence != 0 {
		t.Errorf("twin divergence %d, want 0", twin.Divergence)
	}
	if repl.Divergence == 0 {
		t.Error("replicate shadow never diverged from live sc on a zipf-ish workload")
	}
	if twin.Hits == 0 || twin.Transfers == 0 {
		t.Errorf("twin hits/transfers %d/%d, want both > 0", twin.Hits, twin.Transfers)
	}
	if pool.Shadows() == nil {
		t.Error("Pool.Shadows() returned nil on a shadowed pool")
	}

	// A pool without shadows reports nothing.
	plain, err := datacache.NewPool(4, 1, datacache.Unit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ShadowReport() != nil || plain.ShadowNames() != nil {
		t.Error("plain pool should have no shadow report")
	}
}
