package datacache

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"datacache/internal/model"
	"datacache/internal/offline"
	"datacache/internal/workload"
)

// TestPolicySpecRoundTrip pins the canonicalization property the whole
// policy-spec API rests on: for every supported policy family, Spec() is
// a fixed point of ParsePolicySpec — parse(spec).Spec() re-parses to the
// identical PolicySpec and renders to the identical string. The recorder
// depends on this (StreamInfo.Policy stores Spec() and replay re-parses
// it), so a drift here silently breaks bit-for-bit replay. Every kind
// renders as "kind" or "kind:k=v,k=v".
func TestPolicySpecRoundTrip(t *testing.T) {
	canonical := map[string]string{
		"sc":                       "sc",
		"sc:window=1.5":            "sc:window=1.5",
		"sc:epoch=16":              "sc:epoch=16",
		"sc:window=2:epoch=8":      "sc:window=2,epoch=8",
		"sc:window=2,epoch=8":      "sc:window=2,epoch=8", // comma and colon spellings parse alike
		"sc:epoch=8,window=2":      "sc:window=2,epoch=8",
		"ttl:window=0.5":           "ttl:window=0.5",
		"adaptive":                 "adaptive",
		"migrate":                  "migrate",
		"replicate":                "replicate",
		"keep":                     "replicate", // accepted as input, rendered as its kind
		"hybrid":                   "hybrid",
		"hybrid:horizon=8":         "hybrid:horizon=8",
		"hybrid:order=2":           "hybrid:order=2",
		"hybrid:order=2:horizon=8": "hybrid:horizon=8,order=2",
		"hybrid:horizon=8,order=2": "hybrid:horizon=8,order=2",
		"hybrid:horizon=4,order=3,window=1.5,epoch=32": "hybrid:horizon=4,order=3,window=1.5,epoch=32",
	}
	for spec, want := range canonical {
		sp, err := ParsePolicySpec(spec)
		if err != nil {
			t.Fatalf("ParsePolicySpec(%q): %v", spec, err)
		}
		canon := sp.Spec()
		if canon != want {
			t.Errorf("ParsePolicySpec(%q).Spec() = %q, want %q", spec, canon, want)
		}
		sp2, err := ParsePolicySpec(canon)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if sp2 != sp {
			t.Errorf("%q: parse(Spec()) = %+v, want %+v", spec, sp2, sp)
		}
		if again := sp2.Spec(); again != canon {
			t.Errorf("%q: Spec() not a fixed point: %q then %q", spec, canon, again)
		}
		if sp.Name() != canon {
			t.Errorf("%q: Name() = %q, want the canonical %q", spec, sp.Name(), canon)
		}
	}
	// The zero spec is sc, and a Label overrides the name only.
	if got := (PolicySpec{}).Spec(); got != "sc" {
		t.Errorf("zero spec renders %q, want sc", got)
	}
	if sp := (PolicySpec{Policy: "migrate", Label: "m"}); sp.Name() != "m" || sp.Spec() != "migrate" {
		t.Errorf("labeled spec: Name %q Spec %q", sp.Name(), sp.Spec())
	}
}

// TestPolicySpecRejects pins the validation errors: parameters that make
// no sense for a policy are refused eagerly at parse time, not at first
// use inside a session — a key a kind ignores is an error, never silently
// dropped.
func TestPolicySpecRejects(t *testing.T) {
	bad := map[string]string{
		"sc:horizon=4":          "does not take horizon",
		"ttl:order=2":           "does not take order",
		"migrate:horizon=1":     "does not take horizon",
		"ttl:window=1,epoch=3":  "does not take epoch",
		"migrate:window=2":      "does not take window",
		"replicate:epoch=5":     "does not take epoch",
		"keep:window=1":         "does not take window",
		"adaptive:window=1":     "does not take window",
		"sc:horizon=2,order=2":  "does not take horizon/order",
		"hybrid:horizon=0":      "horizon",
		"hybrid:order=0":        "order",
		"ttl":                   "window",
		"ttl:window=0":          "bad window",
		"sc:window=-1":          "bad window",
		"sc:epoch=0":            "bad epoch",
		"sc:bogus=1":            "unknown key",
		"sc:epoch":              "not key=value",
		"warp":                  "unknown policy",
		"SC":                    "unknown policy", // names are case-sensitive
		"":                      "empty",
		"hybrid:horizon=8,sc":   "not key=value",
		"sc:window=1,,epoch=16": "not key=value",
	}
	for spec, want := range bad {
		if _, err := ParsePolicySpec(spec); err == nil {
			t.Errorf("ParsePolicySpec(%q) accepted, want error mentioning %q", spec, want)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("ParsePolicySpec(%q) = %v, want mention of %q", spec, err, want)
		}
	}
}

// TestSplitPolicySpecs pins the -shadows list grammar: a comma piece of
// the form key=value with no ":" continues the previous spec, so a label
// any tool prints can be pasted back as a list entry.
func TestSplitPolicySpecs(t *testing.T) {
	cases := map[string][]string{
		"":                                  nil,
		" , ":                               nil,
		"sc":                                {"sc"},
		"sc,migrate":                        {"sc", "migrate"},
		" sc , ttl:window=2 ,migrate":       {"sc", "ttl:window=2", "migrate"},
		"hybrid:horizon=8,order=2,migrate":  {"hybrid:horizon=8,order=2", "migrate"},
		"hybrid:horizon=8:order=2,migrate":  {"hybrid:horizon=8:order=2", "migrate"},
		"sc:window=1.5,epoch=16,keep":       {"sc:window=1.5,epoch=16", "keep"},
		"ttl:window=1,sc:epoch=16,epoch=32": {"ttl:window=1", "sc:epoch=16,epoch=32"},
	}
	for list, want := range cases {
		if got := SplitPolicySpecs(list); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitPolicySpecs(%q) = %q, want %q", list, got, want)
		}
	}
	// A comma-join of canonical specs splits back into the same specs.
	rng := rand.New(rand.NewSource(5))
	pool := []string{"sc", "sc:window=1.5,epoch=16", "sc:epoch=16", "ttl:window=0.25", "adaptive",
		"migrate", "replicate", "hybrid", "hybrid:horizon=8,order=2", "hybrid:order=3,window=2,epoch=4"}
	for trial := 0; trial < 200; trial++ {
		var specs []PolicySpec
		var canon []string
		for k := 1 + rng.Intn(5); k > 0; k-- {
			sp, err := ParsePolicySpec(pool[rng.Intn(len(pool))])
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, sp)
			canon = append(canon, sp.Spec())
		}
		got, err := WithShadowPolicies(SplitPolicySpecs(strings.Join(canon, ","))...)
		if err != nil {
			t.Fatalf("%q: %v", canon, err)
		}
		if !reflect.DeepEqual(got, specs) {
			t.Fatalf("%q split and parsed to %+v, want %+v", canon, got, specs)
		}
	}
}

// TestPolicySpecMatchesRunners is the one-resolver acceptance check: for
// every kind, serving a parsed spec reproduces the typed Runner it
// replaces schedule for schedule, with bit-identical cost, on Fig. 6 and
// on seeded uniform, zipf, bursty, markov, adversarial and cycle
// workloads. (AdaptiveTTL itself is pinned against its pre-decider loop
// in internal/online.)
func TestPolicySpecMatchesRunners(t *testing.T) {
	cases := []struct {
		spec   string
		runner Policy
	}{
		{"sc", SpeculativeCaching{}},
		{"sc:epoch=3", SpeculativeCaching{EpochTransfers: 3}},
		{"sc:epoch=16", SpeculativeCaching{EpochTransfers: 16}},
		{"ttl:window=0.7", SpeculativeCaching{Window: 0.7}},
		{"ttl:window=3.25", SpeculativeCaching{Window: 3.25}},
		{"sc:window=0.7,epoch=3", SpeculativeCaching{Window: 0.7, EpochTransfers: 3}},
		{"adaptive", AdaptiveTTL{}},
		{"migrate", AlwaysMigrate{}},
		{"replicate", KeepEverywhere{}},
		{"keep", KeepEverywhere{}},
	}
	type instance struct {
		name string
		seq  *Sequence
		cm   CostModel
	}
	fig6, fig6cm := offline.Fig6Instance()
	insts := []instance{{"fig6", fig6, fig6cm}}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(8)
		cm := CostModel{Mu: 0.5 + rng.Float64()*2, Lambda: 0.5 + rng.Float64()*3}
		gap := 0.2 + rng.Float64()*2*cm.Delta()
		for _, g := range []workload.Generator{
			workload.Uniform{M: m, MeanGap: gap},
			workload.Zipf{M: m, S: 1.5, MeanGap: gap},
			workload.Bursty{M: m, BurstLen: 6, WithinGap: gap / 4, BetweenGap: gap * 6},
			workload.MarkovHop{M: m, Stay: 0.8, MeanGap: gap},
			workload.Adversarial{M: m, Window: cm.Delta()},
			workload.Cycle{M: m, Gap: gap},
		} {
			insts = append(insts, instance{g.Name(), g.Generate(rng, 150), cm})
		}
	}
	for _, tc := range cases {
		sp, err := ParsePolicySpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range insts {
			got, err := Serve(sp, in.seq, in.cm)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.spec, in.name, err)
			}
			want, err := Serve(tc.runner, in.seq, in.cm)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.runner.Name(), in.name, err)
			}
			if !reflect.DeepEqual(got.Schedule, want.Schedule) {
				t.Fatalf("%s on %s: schedule differs from %s", tc.spec, in.name, tc.runner.Name())
			}
			if math.Float64bits(got.Stats.Cost) != math.Float64bits(want.Stats.Cost) || got.Stats != want.Stats {
				t.Fatalf("%s on %s: stats %+v, %s has %+v", tc.spec, in.name, got.Stats, tc.runner.Name(), want.Stats)
			}
			if got.Policy != sp.Spec() {
				t.Fatalf("%s: result names %q, want the canonical spec", tc.spec, got.Policy)
			}
		}
	}
	// Every listed kind parses and runs as a Policy through
	// MeasureRatio, SC within Theorem 3's bound.
	for _, kind := range PolicyKinds() {
		spec := kind
		if kind == "ttl" {
			spec = "ttl:window=0.5"
		}
		sp, err := ParsePolicySpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := MeasureRatio(sp, fig6, fig6cm)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if pt.Cost < pt.Opt-1e-9 || (kind == "sc" && pt.Ratio > 3) {
			t.Errorf("%s on fig6: cost %v, optimum %v", spec, pt.Cost, pt.Opt)
		}
	}
	// A bad spec or instance fails the run, not the process.
	if _, err := Serve(PolicySpec{Policy: "ttl"}, fig6, fig6cm); err == nil {
		t.Error("ttl without a window ran")
	}
	if _, err := Serve(PolicySpec{}, &Sequence{M: 0}, fig6cm); err == nil {
		t.Error("an invalid sequence ran")
	}
	if _, err := Serve(PolicySpec{Policy: "migrate"}, fig6, model.CostModel{}); err == nil {
		t.Error("an invalid cost model ran")
	}
}

// FuzzParsePolicySpec drives arbitrary spec strings through the parser
// and checks the canonicalization invariant on everything it accepts:
// the rendered Spec() must re-parse to the identical struct, render
// identically (fixed point), and construct a valid decider.
func FuzzParsePolicySpec(f *testing.F) {
	for _, seed := range []string{
		"sc", "sc:window=1.5", "sc:epoch=16", "sc:window=2:epoch=8",
		"ttl:window=0.5", "adaptive", "migrate", "replicate", "keep",
		"hybrid", "hybrid:horizon=8,order=2", "hybrid:window=2",
		"sc:bogus=1", "sc:epoch", "", "warp", "hybrid:horizon=0",
		"ttl:window=-1", "ttl:window=NaN", "sc:window=+Inf",
		"sc:window=1e300", "hybrid:order=2:horizon=3",
		"ttl:window=1,epoch=3", "migrate:window=2", "replicate:epoch=5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sp, err := ParsePolicySpec(spec)
		if err != nil {
			return // rejected input: nothing to check
		}
		canon := sp.Spec()
		sp2, err := ParsePolicySpec(canon)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if sp2 != sp {
			t.Fatalf("%q: parse(Spec()) = %+v, want %+v", spec, sp2, sp)
		}
		if again := sp2.Spec(); again != canon {
			t.Fatalf("Spec() not a fixed point for %q: %q then %q", spec, canon, again)
		}
		if _, err := sp2.decider(); err != nil {
			t.Fatalf("canonical %q builds no decider: %v", canon, err)
		}
	})
}
