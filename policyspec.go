package datacache

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"datacache/internal/engine"
	"datacache/internal/online"
	"datacache/internal/planner"
)

// PolicySpec is the one policy grammar, and the only code that turns a
// policy name and its parameters into a decider. It is the live policy
// a Session or Pool serves with, the counterfactual each shadow
// evaluates, and — as a Policy — a whole-sequence run for Serve,
// MeasureRatio and the catalog planner; every CLI flag and HTTP field
// that names a policy parses it. The zero Policy means "sc"; Label
// overrides the report label, which otherwise is the canonical Spec()
// rendering ("sc", "ttl:window=0.5", "sc:epoch=16",
// "hybrid:horizon=8,order=2", ...).
//
// Policy kinds and the keys each takes:
//
//	sc          speculative caching, the paper's 3-competitive online
//	            policy: TTL(τ) at τ = Δt = λ/μ; window=X overrides τ,
//	            epoch=N restarts every N transfers
//	ttl         TTL(τ) with a mandatory explicit window=X
//	adaptive    SC with per-server windows learned from revisit gaps
//	            (no keys; no worst-case guarantee)
//	migrate     single copy following the requests, the τ = 0 end
//	replicate   copy everywhere, never drop, the τ = ∞ end ("keep" is
//	            accepted as an alias)
//	hybrid      prediction-fed planner with SC fallback: horizon=K,
//	            order=k, window=X, epoch=N (see internal/planner)
type PolicySpec struct {
	Policy         string
	Window         float64
	EpochTransfers int
	Horizon        int // hybrid: rolling plan depth (requests)
	Order          int // hybrid: Markov predictor order
	Label          string
}

// policyKind is one row of the policy table: a kind, the parameter
// keys it takes, and its decider construction.
type policyKind struct {
	name  string
	keys  []string
	build func(sp PolicySpec) engine.Decider
}

// policyKinds is the one table of policy kinds: decider resolves through
// it and PolicyKinds lists it.
var policyKinds = []policyKind{
	{"sc", []string{"window", "epoch"}, func(sp PolicySpec) engine.Decider {
		return &engine.SC{Window: sp.Window, EpochTransfers: sp.EpochTransfers}
	}},
	{"ttl", []string{"window"}, func(sp PolicySpec) engine.Decider { return &engine.SC{Window: sp.Window} }},
	{"adaptive", nil, func(PolicySpec) engine.Decider { return online.AdaptiveTTL{}.Decider() }},
	{"migrate", nil, func(PolicySpec) engine.Decider { return &engine.Migrate{} }},
	{"replicate", nil, func(PolicySpec) engine.Decider { return &engine.Replicate{} }},
	{"hybrid", []string{"horizon", "order", "window", "epoch"}, func(sp PolicySpec) engine.Decider {
		return &planner.Hybrid{
			Horizon:        sp.Horizon,
			Order:          sp.Order,
			Window:         sp.Window,
			EpochTransfers: sp.EpochTransfers,
		}
	}},
}

// PolicyKinds lists the policy kinds ParsePolicySpec accepts, in table
// order ("keep" also parses, as an alias of replicate).
func PolicyKinds() []string {
	out := make([]string, len(policyKinds))
	for i, k := range policyKinds {
		out[i] = k.name
	}
	return out
}

// kindOf resolves a policy name to its table row, or nil when unknown.
func kindOf(name string) *policyKind {
	switch name {
	case "":
		name = "sc"
	case "keep":
		name = "replicate"
	}
	for i := range policyKinds {
		if policyKinds[i].name == name {
			return &policyKinds[i]
		}
	}
	return nil
}

// params renders the parameters the spec sets as key=value pairs, in
// the canonical order.
func (sp PolicySpec) params() []string {
	var kv []string
	if sp.Horizon > 0 {
		kv = append(kv, fmt.Sprintf("horizon=%d", sp.Horizon))
	}
	if sp.Order > 0 {
		kv = append(kv, fmt.Sprintf("order=%d", sp.Order))
	}
	if sp.Window > 0 {
		kv = append(kv, fmt.Sprintf("window=%g", sp.Window))
	}
	if sp.EpochTransfers > 0 {
		kv = append(kv, fmt.Sprintf("epoch=%d", sp.EpochTransfers))
	}
	return kv
}

// Spec renders the canonical spec string, "kind" or "kind:k=v,k=v" —
// a fixed point of ParsePolicySpec: parsing a canonical rendering
// yields the identical spec.
func (sp PolicySpec) Spec() string {
	name := sp.Policy
	if k := kindOf(name); k != nil {
		name = k.name
	}
	if kv := sp.params(); len(kv) > 0 {
		return name + ":" + strings.Join(kv, ",")
	}
	return name
}

// Name implements Policy: the label the spec's standings, metric series
// and reports use — Label when set, else the canonical Spec().
func (sp PolicySpec) Name() string {
	if sp.Label != "" {
		return sp.Label
	}
	return sp.Spec()
}

// Run implements Policy: it validates the inputs and replays the
// sequence through a fresh decider, so a spec runs wherever a typed
// Policy does.
func (sp PolicySpec) Run(seq *Sequence, cm CostModel) (*Schedule, error) {
	d, err := sp.decider()
	if err != nil {
		return nil, err
	}
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	return engine.Replay(d, seq, cm)
}

// resolve validates the spec against the table: a known kind, only the
// keys it takes, and ttl's mandatory window.
func (sp PolicySpec) resolve() (*policyKind, error) {
	k := kindOf(sp.Policy)
	if k == nil {
		return nil, fmt.Errorf("datacache: unknown policy %q", sp.Policy)
	}
	var extra []string
	for _, kv := range sp.params() {
		if key, _, _ := strings.Cut(kv, "="); !slices.Contains(k.keys, key) {
			extra = append(extra, key)
		}
	}
	if len(extra) > 0 {
		return nil, fmt.Errorf("datacache: policy %q does not take %s", k.name, strings.Join(extra, "/"))
	}
	if k.name == "ttl" && sp.Window <= 0 {
		return nil, fmt.Errorf("datacache: ttl policy requires window > 0")
	}
	return k, nil
}

// decider builds the engine decider the spec names — the same
// construction whether it serves live, runs as a shadow or replays a
// whole sequence.
func (sp PolicySpec) decider() (engine.Decider, error) {
	k, err := sp.resolve()
	if err != nil {
		return nil, err
	}
	return k.build(sp), nil
}

// ParsePolicySpec parses one policy spec of the form
// "kind[:key=value[,key=value...]]": "sc", "sc:window=1.5,epoch=16",
// "ttl:window=0.5", "adaptive", "migrate", "replicate",
// "hybrid:horizon=8,order=2". Pairs may also be separated by further
// ":" segments; both spellings parse identically. A key the kind does
// not take is an error.
func ParsePolicySpec(spec string) (PolicySpec, error) {
	sp, err := parsePolicySpec(spec)
	if err != nil {
		return sp, err
	}
	// Validate the kind and its keys eagerly so a bad spec fails at
	// parse time, not at session create.
	if _, err := sp.resolve(); err != nil {
		return sp, err
	}
	return sp, nil
}

// parsePolicySpec is the grammar without the table validation — Replay
// folds an older recording's window/epoch fields into the parsed spec
// before validating, so a bare "ttl" must survive parsing. Aliases
// resolve to their kind's name ("keep" parses as replicate).
func parsePolicySpec(spec string) (PolicySpec, error) {
	parts := strings.Split(spec, ":")
	sp := PolicySpec{Policy: strings.TrimSpace(parts[0])}
	if sp.Policy == "" {
		return sp, fmt.Errorf("datacache: empty policy spec %q", spec)
	}
	if k := kindOf(sp.Policy); k != nil {
		sp.Policy = k.name
	}
	for _, seg := range parts[1:] {
		for _, kv := range strings.Split(seg, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return sp, fmt.Errorf("datacache: policy spec %q: %q is not key=value", spec, kv)
			}
			switch key {
			case "window":
				w, err := strconv.ParseFloat(val, 64)
				// The explicit NaN test matters: NaN fails w <= 0 too.
				if err != nil || w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					return sp, fmt.Errorf("datacache: policy spec %q: bad window %q", spec, val)
				}
				sp.Window = w
			case "epoch":
				e, err := strconv.Atoi(val)
				if err != nil || e < 1 {
					return sp, fmt.Errorf("datacache: policy spec %q: bad epoch %q", spec, val)
				}
				sp.EpochTransfers = e
			case "horizon":
				h, err := strconv.Atoi(val)
				if err != nil || h < 1 {
					return sp, fmt.Errorf("datacache: policy spec %q: bad horizon %q", spec, val)
				}
				sp.Horizon = h
			case "order":
				o, err := strconv.Atoi(val)
				if err != nil || o < 1 {
					return sp, fmt.Errorf("datacache: policy spec %q: bad order %q", spec, val)
				}
				sp.Order = o
			default:
				return sp, fmt.Errorf("datacache: policy spec %q: unknown key %q", spec, key)
			}
		}
	}
	return sp, nil
}

// SplitPolicySpecs splits a comma-separated list of policy specs, the
// form the CLIs' -shadows flags take. Commas also separate one spec's
// key=value pairs, so a piece of the form key=value with no ":"
// continues the previous spec: "hybrid:horizon=8,order=2,migrate" splits
// into "hybrid:horizon=8,order=2" and "migrate". A comma-join of
// canonical specs therefore splits back into the same specs. Blank
// pieces are skipped.
func SplitPolicySpecs(list string) []string {
	var out []string
	for _, piece := range strings.Split(list, ",") {
		piece = strings.TrimSpace(piece)
		switch {
		case piece == "":
		case len(out) > 0 && strings.Contains(piece, "=") && !strings.Contains(piece, ":"):
			out[len(out)-1] += "," + piece
		default:
			out = append(out, piece)
		}
	}
	return out
}

// WithShadowPolicies parses policy specs into the ShadowPolicies option
// — the one-liner for wiring counterfactual policies into a Session or
// a Pool's session template:
//
//	opts.ShadowPolicies, err = datacache.WithShadowPolicies("ttl:window=1", "migrate")
func WithShadowPolicies(specs ...string) ([]PolicySpec, error) {
	out := make([]PolicySpec, 0, len(specs))
	for _, spec := range specs {
		sp, err := ParsePolicySpec(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	return out, nil
}
