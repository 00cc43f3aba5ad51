package datacache

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"datacache/internal/trajectory"
)

// TestHybridDecisionsGolden pins every decision the hybrid planner makes
// on two seeded traces: hit, source and drops per request, the exact
// cumulative cost and prefix optimum, and the planner's plan and
// mispredict counts. TestReplayHybridSession records and replays with
// the same code, so only a golden catches a changed plan. Regenerate
// testdata/hybrid/decisions.golden with -update.
func TestHybridDecisionsGolden(t *testing.T) {
	// An 8-server cycle with jittered gaps, which the planner plans on
	// almost every request, and a sticky 16-server MarkovCells walk shaped
	// like perfbench's session-observed users, on which plans also
	// mispredict.
	rng := rand.New(rand.NewSource(27))
	cycle := &Sequence{M: 8, Origin: 1}
	tm := 0.0
	for i := 0; i < 160; i++ {
		tm += 0.5 + rng.Float64()
		cycle.Requests = append(cycle.Requests, Request{Server: ServerID(i%8 + 1), Time: tm})
	}
	cells := trajectory.MarkovCells{Field: trajectory.GridField(16, 4), Stay: 0.85, Neighbors: 2, ReqGap: 1}.
		Generate(rand.New(rand.NewSource(1)), 240)
	traces := []struct {
		name string
		seq  *Sequence
	}{{"cycle8", cycle}, {"markov16", cells}}

	var out bytes.Buffer
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, tr := range traces {
		sess, err := NewSession(tr.seq.M, tr.seq.Origin, CostModel{Mu: 1, Lambda: 2},
			&SessionOptions{Policy: "hybrid:horizon=8,order=2"})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "# %s m=%d n=%d\n", tr.name, tr.seq.M, tr.seq.N())
		for i, r := range tr.seq.Requests {
			d, err := sess.Serve(r.Server, r.Time)
			if err != nil {
				t.Fatal(err)
			}
			st, _ := sess.PlannerStats()
			fmt.Fprintf(&out, "%d %d %t %d %d %s %s %d %d\n",
				i+1, r.Server, d.Hit, d.From, d.Drops, f(d.Cost), f(d.Optimal), st.Plans, st.Mispredicts)
		}
		st, _ := sess.PlannerStats()
		if st.Plans == 0 {
			t.Errorf("%s: the planner never planned", tr.name)
		}
		if tr.name == "markov16" && st.Mispredicts == 0 {
			t.Errorf("%s: no plan mispredicted", tr.name)
		}
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "hybrid", "decisions.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(got), len(wantLines)) {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("decisions have %d lines, golden %d", len(got), len(wantLines))
	}
}
