package datacache

import (
	"context"
	"strings"
	"testing"

	"datacache/internal/obs"
	"datacache/internal/recorder"
)

// driveCycle serves n requests of the perfectly predictable round-robin
// trace over m servers (server (i mod m)+1 at time i·gap) — the workload
// an order-2 Markov predictor learns exactly, so the hybrid planner's
// gate opens and its DP plans fire.
func driveCycle(t *testing.T, sess *Session, m, n int, gap float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := sess.Serve(ServerID(i%m+1), float64(i+1)*gap); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHybridSessionSelfCheck is the end-to-end contract of a hybrid live
// session: the implicit "sc" shadow rides along, planner stats and the
// planner_worse_than_sc alert surface, and on a predictable trace the
// planner never pays more than its own SC fallback.
func TestHybridSessionSelfCheck(t *testing.T) {
	sess, err := NewSession(6, 1, CostModel{Mu: 1, Lambda: 3}, &SessionOptions{
		Policy: "hybrid:horizon=8,order=2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Policy() != "hybrid:horizon=8,order=2" {
		t.Fatalf("Policy() = %q, want the canonical spec", sess.Policy())
	}
	// The SC fallback self-check is implicit: no shadows were asked for,
	// exactly one labeled "sc" must exist anyway.
	names := sess.ShadowNames()
	if len(names) != 1 || names[0] != "sc" {
		t.Fatalf("ShadowNames() = %v, want [sc]", names)
	}
	a, ok := sess.PlannerAlert()
	if !ok {
		t.Fatal("hybrid session has no planner alert")
	}
	if a.Rule.Name != PlannerAlertRuleName {
		t.Fatalf("planner alert rule = %q, want %q", a.Rule.Name, PlannerAlertRuleName)
	}

	driveCycle(t, sess, 6, 600, 1)

	st, ok := sess.PlannerStats()
	if !ok {
		t.Fatal("hybrid session reports no planner stats")
	}
	if st.Horizon != 8 || st.Order != 2 {
		t.Fatalf("planner stats carry horizon=%d order=%d, want 8/2", st.Horizon, st.Order)
	}
	if !st.GateOpen || st.Plans == 0 {
		t.Fatalf("planner never engaged on a predictable cycle: %+v", st)
	}
	if st.PredictedHitRatio < 0.9 {
		t.Fatalf("predicted-hit ratio %v < 0.9 on a deterministic cycle", st.PredictedHitRatio)
	}
	// The built-in guarantee: planning must not lose to the SC fallback
	// on traffic the predictor nails.
	live, sc := sess.CostLive(), sess.ShadowCostLive(0)
	if live > sc+1e-9 {
		t.Fatalf("hybrid live cost %v exceeds sc shadow %v", live, sc)
	}
	// And the alert tracking that exact margin must be quiet.
	if a, _ := sess.PlannerAlert(); a.State == obs.AlertFiring {
		t.Fatalf("planner_worse_than_sc fired on a winning planner (value %v)", a.Value)
	}
	found := false
	for _, al := range sess.Alerts() {
		if al.Rule.Name == PlannerAlertRuleName {
			found = true
		}
	}
	if !found {
		t.Fatalf("Alerts() = %+v, missing %s", sess.Alerts(), PlannerAlertRuleName)
	}
}

// TestHybridExplicitSCShadowNotDuplicated: a caller who already runs an
// "sc"-labeled shadow keeps exactly that one — the implicit self-check
// must not collide with it.
func TestHybridExplicitSCShadowNotDuplicated(t *testing.T) {
	shadows, err := WithShadowPolicies("migrate")
	if err != nil {
		t.Fatal(err)
	}
	shadows = append(shadows, PolicySpec{Policy: "sc", Label: "sc"})
	sess, err := NewSession(4, 1, CostModel{Mu: 1, Lambda: 2}, &SessionOptions{
		Policy:         "hybrid",
		ShadowPolicies: shadows,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := sess.ShadowNames()
	if len(names) != 2 || names[0] != "migrate" || names[1] != "sc" {
		t.Fatalf("ShadowNames() = %v, want [migrate sc]", names)
	}
	if _, ok := sess.PlannerAlert(); !ok {
		t.Fatal("planner alert should bind to the caller's sc shadow")
	}
}

// TestNonHybridSessionHasNoPlanner: the planner surface stays absent on
// plain policies — no stats, no alert, no implicit shadow.
func TestNonHybridSessionHasNoPlanner(t *testing.T) {
	sess, err := NewSession(4, 1, CostModel{Mu: 1, Lambda: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.PlannerStats(); ok {
		t.Fatal("sc session reports planner stats")
	}
	if _, ok := sess.PlannerAlert(); ok {
		t.Fatal("sc session reports a planner alert")
	}
	if names := sess.ShadowNames(); names != nil {
		t.Fatalf("sc session grew shadows: %v", names)
	}
}

// TestServeBatchNilContext pins the nil-ctx normalization: a nil context
// means "never canceled", not a panic in ctx.Err.
func TestServeBatchNilContext(t *testing.T) {
	sess, err := NewSession(3, 1, CostModel{Mu: 1, Lambda: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var nilCtx context.Context
	res, err := sess.ServeBatch(nilCtx, []Request{{Server: 2, Time: 1}, {Server: 3, Time: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 2 || res.FirstRejected != -1 {
		t.Fatalf("batch result = %+v", res)
	}
}

// TestReplayHybridSession records a hybrid session on the predictable
// cycle and replays it: the recorded spec carries horizon/order, so the
// rebuilt planner re-executes the identical plans and the replay
// verifies bit-for-bit.
func TestReplayHybridSession(t *testing.T) {
	for _, mode := range []string{recorder.ModeBinary, recorder.ModeNDJSON} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			w, err := recorder.NewWriter(recorder.Options{Dir: dir, Mode: mode, Source: "test"})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(6, 1, CostModel{Mu: 1, Lambda: 3}, &SessionOptions{
				Policy:        "hybrid:horizon=8,order=2",
				Recorder:      w,
				RecordSession: "sn-1",
			})
			if err != nil {
				t.Fatal(err)
			}
			driveCycle(t, sess, 6, 400, 1)
			st, _ := sess.PlannerStats()
			if st.Plans == 0 {
				t.Fatal("planner never planned; the replay would not exercise it")
			}
			if _, err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rep, err := ReplayPath(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.BitwiseOK {
				t.Fatalf("hybrid replay not bitwise: %+v", rep.Streams)
			}
			if rep.Records != 400 || len(rep.Streams) != 1 {
				t.Fatalf("records=%d streams=%d", rep.Records, len(rep.Streams))
			}
			if rep.Streams[0].Policy != "hybrid:horizon=8,order=2" {
				t.Fatalf("replayed policy = %q", rep.Streams[0].Policy)
			}
		})
	}
}

// TestSessionPolicySpecErrors: a bad live spec fails session create with
// the policy-spec error, not a generic one.
func TestSessionPolicySpecErrors(t *testing.T) {
	_, err := NewSession(3, 1, CostModel{Mu: 1, Lambda: 1}, &SessionOptions{Policy: "sc:horizon=4"})
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("err = %v, want horizon complaint", err)
	}
	// A key the kind ignores is refused, never silently dropped.
	_, err = NewSession(3, 1, CostModel{Mu: 1, Lambda: 1}, &SessionOptions{Policy: "ttl:window=1,epoch=3"})
	if err == nil || !strings.Contains(err.Error(), "does not take epoch") {
		t.Fatalf("err = %v, want epoch complaint", err)
	}
	// The window rides in the spec; a bare "ttl" has none.
	if _, err := NewSession(3, 1, CostModel{Mu: 1, Lambda: 1}, &SessionOptions{Policy: "ttl"}); err == nil ||
		!strings.Contains(err.Error(), "window") {
		t.Fatalf("bare ttl: err = %v, want window complaint", err)
	}
	sess, err := NewSession(3, 1, CostModel{Mu: 1, Lambda: 1}, &SessionOptions{Policy: "ttl:window=0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Policy() != "ttl:window=0.5" {
		t.Fatalf("Policy() = %q, want ttl:window=0.5", sess.Policy())
	}
}
