package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestTable1ReproducesParadigmContrast(t *testing.T) {
	rep, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rep.Table.Rows))
	}
	out := rep.String()
	if !strings.Contains(out, "Belady") || !strings.Contains(out, "FastDP") {
		t.Errorf("missing algorithms in:\n%s", out)
	}
}

func TestFig2Report(t *testing.T) {
	rep, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"3.2", "7.2", "4"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Paper and measured columns must agree on every row.
	for _, row := range rep.Table.Rows {
		if row[1] != row[2] {
			t.Errorf("row %v: paper %q != measured %q", row[0], row[1], row[2])
		}
	}
}

func TestFig6Report(t *testing.T) {
	rep, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rep.Table.Rows))
	}
	// Measured C(i) (column 5) must equal the paper's C (column 7).
	for _, row := range rep.Table.Rows {
		if row[5] != row[7] {
			t.Errorf("request %s: measured C %q != paper C %q", row[0], row[5], row[7])
		}
		if row[6] != row[8] {
			t.Errorf("request %s: measured D %q != paper D %q", row[0], row[6], row[8])
		}
	}
}

func TestFig7AllChecksHold(t *testing.T) {
	rep, err := Fig7(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Table.Rows {
		if row[4] != "true" {
			t.Errorf("check %q does not hold: %v", row[0], row)
		}
	}
}

func TestComplexitySmall(t *testing.T) {
	cfg := ComplexityConfig{Ns: []int{200, 400, 800}, M: 8, MSweep: []int{4, 8}, NFixed: 400, Repeats: 1}
	rep, err := Complexity(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != len(cfg.Ns)+len(cfg.MSweep) {
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
	if len(rep.Notes) == 0 || !strings.Contains(rep.Notes[0], "n^") {
		t.Errorf("missing growth note: %v", rep.Notes)
	}
}

func TestRatioSweepUnderBound(t *testing.T) {
	rep, err := Ratio(1, 150)
	if err != nil {
		t.Fatal(err) // Ratio fails internally if any ratio exceeds 3
	}
	if len(rep.Table.Rows) != 5*7 {
		t.Fatalf("rows = %d, want 35 (5 cost models x 7 workloads)", len(rep.Table.Rows))
	}
}

func TestPoliciesReport(t *testing.T) {
	rep, err := Policies(1, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 workloads", len(rep.Table.Rows))
	}
	if got := len(rep.Table.Header); got != 7 {
		t.Fatalf("columns = %d, want 7", got)
	}
}

func TestPredictReport(t *testing.T) {
	rep, err := Predict(1, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 mobility scenarios", len(rep.Table.Rows))
	}
}

func TestHeteroReport(t *testing.T) {
	rep, err := Hetero(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 skew levels", len(rep.Table.Rows))
	}
	// Zero skew: the gap column must be exactly 0.
	if rep.Table.Rows[0][3] != "0" {
		t.Errorf("zero-skew gap = %q, want 0", rep.Table.Rows[0][3])
	}
	// The regret of assuming homogeneity grows with skew: the gap at
	// skew 0.8 (the last row) exceeds the gap at skew 0.1.
	low, err := strconv.ParseFloat(rep.Table.Rows[1][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	high, err := strconv.ParseFloat(rep.Table.Rows[5][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if low < 0 || high <= low {
		t.Errorf("gap at skew 0.1 = %v, at 0.8 = %v; want 0 <= gap(0.1) < gap(0.8)", low, high)
	}
}

func TestReplicationAblation(t *testing.T) {
	rep, err := Replication(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
}

func TestWindowAblation(t *testing.T) {
	rep, err := Window(1, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 7 {
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
	if got := len(rep.Table.Header); got != 8 {
		t.Fatalf("columns = %d, want 8", got)
	}
}

func TestEpochAblation(t *testing.T) {
	rep, err := Epoch(1, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 7 {
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
	// The per-epoch note reads the worst epoch of every finite epoch size
	// against its own sub-instance's optimum: Theorem 3 bounds it by 3.
	var perEpoch float64
	for _, note := range rep.Notes {
		if _, err := fmt.Sscanf(note, "worst per-epoch ratio, each epoch against its own sub-instance's OPT: %g", &perEpoch); err == nil {
			break
		}
	}
	if perEpoch < 1 || perEpoch > 3 {
		t.Errorf("worst per-epoch ratio = %v, want within [1, 3]; notes %q", perEpoch, rep.Notes)
	}
}

func TestFaultsExperiment(t *testing.T) {
	rep, err := Faults(1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
	// Rate 0 row: no faults, no uploads, and both β columns equal baseline.
	zero := rep.Table.Rows[0]
	if zero[1] != "0" || zero[2] != "0" || zero[3] != "0" {
		t.Errorf("zero-rate row = %v", zero)
	}
	if zero[4] != zero[7] || zero[6] != zero[7] {
		t.Errorf("zero-rate costs should equal baseline: %v", zero)
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in short mode")
	}
	reps, err := All(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 14 {
		t.Fatalf("experiments = %d, want 14", len(reps))
	}
	ids := map[string]bool{}
	for _, r := range reps {
		if r.Table == nil || len(r.Table.Rows) == 0 {
			t.Errorf("%s: empty table", r.ID)
		}
		ids[r.ID] = true
	}
	for _, want := range []string{"E1/TableI", "E5/Complexity", "E9/Hetero"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}
