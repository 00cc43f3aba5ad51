package datacache

import (
	"math"
	"math/rand"
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

// TestReplayLegacyStreamInfo pins replay of recordings made while window
// and epoch were option-level knobs: the recorder wrote them beside a
// bare or empty policy name, and replay folds them back into the spec —
// only for kinds that take the key, as the recording session ignored
// them otherwise — reproducing the recorded costs bit for bit.
func TestReplayLegacyStreamInfo(t *testing.T) {
	cases := []struct {
		name   string
		info   recorder.StreamInfo // policy, window and epoch as an older recorder wrote them
		served string              // the spec the recording session served
	}{
		{"empty+epoch", recorder.StreamInfo{Epoch: 3}, "sc:epoch=3"},
		{"ttl+window", recorder.StreamInfo{Policy: "ttl", Window: 0.7}, "ttl:window=0.7"},
		{"sc+epoch", recorder.StreamInfo{Policy: "sc", Epoch: 3}, "sc:epoch=3"},
		{"migrate+window", recorder.StreamInfo{Policy: "migrate", Window: 0.7}, "migrate"},
	}
	for _, tc := range cases {
		for _, mode := range []string{recorder.ModeBinary, recorder.ModeNDJSON} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				w, err := recorder.NewWriter(recorder.Options{Dir: dir, Mode: mode, Source: "test"})
				if err != nil {
					t.Fatal(err)
				}
				info := tc.info
				info.Session, info.M, info.Origin, info.Mu, info.Lambda = "sn-1", 4, 1, 1, 2
				id := w.OpenStream(info)
				sess, err := NewSession(4, 1, CostModel{Mu: 1, Lambda: 2}, &SessionOptions{Policy: tc.served})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				tm := 0.0
				for i := 0; i < 200; i++ {
					tm += rng.ExpFloat64()
					d, err := sess.Serve(ServerID(rng.Intn(4)+1), tm)
					if err != nil {
						t.Fatal(err)
					}
					if err := w.Append(recorder.Record{Kind: recorder.KindServe, Stream: id, Time: d.Time,
						Server: int(d.Server), From: int(d.From), Hit: d.Hit, Drops: d.Drops,
						Cost: d.Cost, Optimal: d.Optimal}); err != nil {
						t.Fatal(err)
					}
				}
				w.CloseStream(id)
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				rep, err := ReplayPath(dir, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.BitwiseOK || rep.Records != 200 {
					t.Fatalf("replay of %+v: bitwise %v over %d records: %+v", tc.info, rep.BitwiseOK, rep.Records, rep.Streams)
				}
				if got := rep.Streams[0].Policy; got != tc.served {
					t.Errorf("replayed policy %q, want %q", got, tc.served)
				}
			})
		}
	}
}
