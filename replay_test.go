package datacache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"datacache/internal/recorder"
)

// recordFig6Session records the paper's Fig. 6 workload through a
// recorded Session and returns the writer's directory plus the final
// live cost and optimum.
func recordFig6Session(t *testing.T, dir, mode string) (cost, opt float64) {
	t.Helper()
	w, err := recorder.NewWriter(recorder.Options{Dir: dir, Mode: mode, Source: "test"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(4, 1, CostModel{Mu: 1, Lambda: 2}, &SessionOptions{
		Recorder:      w,
		RecordSession: "sn-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	tm := 0.0
	var last Decision
	for i := 0; i < 400; i++ {
		tm += rng.ExpFloat64()
		d, err := sess.Serve(ServerID(rng.Intn(4)+1), tm)
		if err != nil {
			t.Fatal(err)
		}
		last = d
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return last.Cost, last.Optimal
}

func TestReplayBitwiseSession(t *testing.T) {
	for _, mode := range []string{recorder.ModeBinary, recorder.ModeNDJSON} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cost, opt := recordFig6Session(t, dir, mode)
			rep, err := ReplayPath(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.BitwiseOK {
				t.Fatalf("bitwise replay failed: %+v", rep.Streams)
			}
			if rep.Records != 400 {
				t.Fatalf("replayed %d records, want 400", rep.Records)
			}
			if len(rep.Streams) != 1 || rep.Streams[0].Session != "sn-1" {
				t.Fatalf("streams = %+v", rep.Streams)
			}
			if math.Float64bits(rep.Streams[0].ReplayedCost) != math.Float64bits(cost) {
				t.Fatalf("replayed cost %v, recorded %v", rep.Streams[0].ReplayedCost, cost)
			}
			// One stream, never evicted: hindsight optimum equals the
			// streaming DP's final readout exactly.
			if math.Float64bits(rep.HindsightOpt) != math.Float64bits(opt) {
				t.Fatalf("hindsight %v, live-streamed optimum %v", rep.HindsightOpt, opt)
			}
			if rep.Ratio < 1 || rep.Ratio > 3 {
				t.Fatalf("ratio %v outside [1, 3]", rep.Ratio)
			}
			if rep.WindowRatio <= 0 || rep.PeakWindowRatio < rep.WindowRatio {
				t.Fatalf("window ratios: final %v peak %v", rep.WindowRatio, rep.PeakWindowRatio)
			}
		})
	}
}

func TestReplayPoolWithEvictions(t *testing.T) {
	dir := t.TempDir()
	w, err := recorder.NewWriter(recorder.Options{Dir: dir, Source: "test"})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(3, 1, CostModel{Mu: 1, Lambda: 1.5}, &PoolOptions{
		Session:  SessionOptions{Recorder: w, RecordSession: "pl-1"},
		MaxItems: 2, // force evictions and revivals
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	tenants := []string{"acme", "globex"}
	items := []string{"a", "b", "c"}
	tm := 0.0
	for i := 0; i < 600; i++ {
		tm += rng.ExpFloat64()
		_, err := pool.Serve(tenants[rng.Intn(2)], items[rng.Intn(3)], ServerID(rng.Intn(3)+1), tm)
		if err != nil {
			t.Fatal(err)
		}
	}
	poolCost, poolOpt := pool.Cost(), pool.Optimal()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := ReplayPath(dir, &ReplayOptions{Shadows: []string{"migrate", "replicate"}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BitwiseOK {
		for _, s := range rep.Streams {
			if !s.Bitwise {
				t.Errorf("stream %d (%s/%s/%s): %s", s.Stream, s.Session, s.Tenant, s.Item, s.FirstDiff)
			}
		}
		t.Fatal("bitwise replay failed")
	}
	if rep.Records != 600 {
		t.Fatalf("replayed %d records, want 600", rep.Records)
	}
	// Revived incarnations must appear as distinct streams of the same key.
	if len(rep.Streams) <= len(rep.Keys) {
		t.Fatalf("no revivals recorded: %d streams over %d keys", len(rep.Streams), len(rep.Keys))
	}
	if len(rep.Keys) != 6 {
		t.Fatalf("keys = %d, want 6", len(rep.Keys))
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("tenants = %+v", rep.Tenants)
	}
	// Live cost across keys must reproduce the pool's bill exactly: both
	// sum per-key incarnation totals.
	sum := 0.0
	for _, k := range rep.Keys {
		sum += k.LiveCost
	}
	if math.Abs(sum-poolCost) > 1e-9 {
		t.Fatalf("replay live cost %v, pool cost %v", sum, poolCost)
	}
	// The hindsight DP never pays for eviction-forced re-transfers, so it
	// lower-bounds the pool's own streamed (per-incarnation) optimum.
	if rep.HindsightOpt > poolOpt+1e-9 {
		t.Fatalf("hindsight optimum %v exceeds per-incarnation optimum %v", rep.HindsightOpt, poolOpt)
	}
	if rep.Ratio < 1 {
		t.Fatalf("hindsight ratio %v < 1", rep.Ratio)
	}
	if rep.ShadowPanel == nil || len(rep.ShadowPanel.Standings) != 3 {
		t.Fatalf("shadow panel = %+v", rep.ShadowPanel)
	}
	if !rep.ShadowPanel.Standings[0].Live || rep.ShadowPanel.Standings[0].Policy != "sc" {
		t.Fatalf("panel live line = %+v", rep.ShadowPanel.Standings[0])
	}
}

func TestReplayRotatedFilesContinueStreams(t *testing.T) {
	dir := t.TempDir()
	w, err := recorder.NewWriter(recorder.Options{Dir: dir, RotateBytes: 2048, Source: "test"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(3, 1, CostModel{Mu: 1, Lambda: 1}, &SessionOptions{
		Recorder: w, RecordSession: "sn-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	tm := 0.0
	for i := 0; i < 300; i++ {
		tm += rng.ExpFloat64()
		if _, err := sess.Serve(ServerID(rng.Intn(3)+1), tm); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Rotations == 0 {
		t.Fatal("test needs rotation to exercise resumed opens")
	}
	rep, err := ReplayPath(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BitwiseOK || rep.Partial != 0 {
		t.Fatalf("rotated replay: bitwise=%v partial=%d", rep.BitwiseOK, rep.Partial)
	}
	if rep.Records != 300 || len(rep.Streams) != 1 {
		t.Fatalf("records=%d streams=%d", rep.Records, len(rep.Streams))
	}

	// Replaying only the later files (prefix lost) must degrade to a
	// partial stream, not a false verification.
	recs, err := recorder.ReadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := Replay(recs[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Partial != 1 || len(tail.Streams) != 1 || !tail.Streams[0].Partial {
		t.Fatalf("tail-only replay: %+v", tail.Streams)
	}
}

// TestReplayRefusesV1Recording pins recorder compatibility across the
// format bump: the committed Fig. 6 recordings in testdata/dcrec-v1,
// written by the version 1 recorder in both encodings, are refused with
// the version error — not replayed into a false bitwise divergence, as
// version 1 cumulative costs were summed in another order.
func TestReplayRefusesV1Recording(t *testing.T) {
	for _, path := range []string{"testdata/dcrec-v1", "testdata/dcrec-v1/fig6.wal", "testdata/dcrec-v1/fig6.ndjson"} {
		_, err := ReplayPath(path, nil)
		if err == nil || !strings.Contains(err.Error(), "unsupported format version 1") {
			t.Errorf("ReplayPath(%s) = %v, want the unsupported format version error", path, err)
		}
	}
}

// TestReplayMixedPoliciesPanel replays, with a shadow panel, one
// recording that holds an sc session and a hybrid session; the hybrid
// runs a built-in sc shadow the sc session does not. The panel merges
// the two sessions' reports by (policy, live): one live line per live
// policy, each at its session's cost, and the hybrid's sc shadow apart
// from the sc live line, every ratio over the hindsight optimum.
func TestReplayMixedPoliciesPanel(t *testing.T) {
	dir := t.TempDir()
	w, err := recorder.NewWriter(recorder.Options{Dir: dir, Source: "test"})
	if err != nil {
		t.Fatal(err)
	}
	liveCost := map[string]float64{}
	for i, policy := range []string{"sc", "hybrid:horizon=8,order=2"} {
		sess, err := NewSession(4, 1, CostModel{Mu: 1, Lambda: 2}, &SessionOptions{
			Policy: policy, Recorder: w, RecordSession: fmt.Sprintf("sn-%d", i+1),
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i + 1)))
		tm := 0.0
		for j := 0; j < 200; j++ {
			tm += rng.ExpFloat64()
			if _, err := sess.Serve(ServerID(rng.Intn(4)+1), tm); err != nil {
				t.Fatal(err)
			}
		}
		liveCost[policy] = sess.Cost()
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayPath(dir, &ReplayOptions{Shadows: []string{"migrate"}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BitwiseOK || rep.ShadowPanel == nil {
		t.Fatalf("bitwise %v, panel %+v", rep.BitwiseOK, rep.ShadowPanel)
	}
	type key struct {
		policy string
		live   bool
	}
	var keys []key
	best := 0
	for _, st := range rep.ShadowPanel.Standings {
		keys = append(keys, key{st.Policy, st.Live})
		if st.Live && math.Float64bits(st.Cost) != math.Float64bits(liveCost[st.Policy]) {
			t.Errorf("live %s line cost %v, session cost %v", st.Policy, st.Cost, liveCost[st.Policy])
		}
		if r := st.Cost / rep.HindsightOpt; math.Float64bits(st.CostOverOptimum) != math.Float64bits(r) {
			t.Errorf("%s line ratio %v, want cost over hindsight optimum %v", st.Policy, st.CostOverOptimum, r)
		}
		if st.Best {
			best++
		}
	}
	want := []key{{"sc", true}, {"migrate", false}, {"hybrid:horizon=8,order=2", true}, {"sc", false}}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("panel lines %v, want %v", keys, want)
	}
	if best != 1 {
		t.Errorf("%d lines marked best, want 1", best)
	}
}

// TestReplayTotalsAreDeterministic replays one recording that holds many
// keys again and again: every report, totals and rollups included, must
// come out bit for bit the same whatever order Go's maps visit the keys.
func TestReplayTotalsAreDeterministic(t *testing.T) {
	dir := t.TempDir()
	w, err := recorder.NewWriter(recorder.Options{Dir: dir, Source: "test"})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(4, 1, CostModel{Mu: 1, Lambda: 1.7}, &PoolOptions{
		Session: SessionOptions{Recorder: w, RecordSession: "pl-1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	tm := 0.0
	for i := 0; i < 800; i++ {
		tm += rng.ExpFloat64()
		tenant := fmt.Sprintf("t%d", rng.Intn(3))
		item := fmt.Sprintf("item-%d", rng.Intn(8))
		if _, err := pool.Serve(tenant, item, ServerID(rng.Intn(4)+1), tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := recorder.ReadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < 40; i++ {
		rep, err := Replay(recs, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("replay %d differs from the first:\n%s\nfirst:\n%s", i, got, first)
		}
	}
}
