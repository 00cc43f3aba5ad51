package main

import (
	"bytes"
	"math"
	"os/exec"
	"path/filepath"
	"testing"
)

// bodies flattens everything a workload sends: create, batch and single
// bodies of every unit, in call order.
func bodies(s *spec) []byte {
	var b bytes.Buffer
	for _, u := range s.units {
		b.Write(u.create)
		for _, x := range u.batches {
			b.Write(x)
		}
		for _, x := range u.singles {
			b.Write(x)
		}
	}
	return b.Bytes()
}

func TestGenerateIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, smallSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, smallSizes)
		c, _ := generate(name, 8, smallSizes)
		if !bytes.Equal(bodies(a), bodies(b)) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if bytes.Equal(bodies(a), bodies(c)) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", name)
		}
	}
}

// TestRunsRepeatBitForBit builds dcserved, runs every workload twice at
// a small size for one timed pass, and requires both runs to pass the
// output check and to agree bit for bit on cost_over_opt and exactly on
// hit and transfer counts.
func TestRunsRepeatBitForBit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts dcserved")
	}
	bin := filepath.Join(t.TempDir(), "dcserved")
	if out, err := exec.Command("go", "build", "-o", bin, "datacache/cmd/dcserved").CombinedOutput(); err != nil {
		t.Fatalf("building dcserved: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		type summary struct {
			ratio           uint64
			hits, transfers int
		}
		var runs []summary
		for i := 0; i < 2; i++ {
			s, err := generate(name, 3, smallSizes)
			if err != nil {
				t.Fatal(err)
			}
			exp, err := expectations(s)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config{workload: name, seed: 3, seconds: 0, dcserved: bin, workdir: t.TempDir(), setups: 1, sizes: smallSizes}
			res, first, err := endToEnd(cfg, s, exp, cfg.workdir)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s run %d: correct=%v failed=%d attempted=%d", name, i, res.Correct, res.Failed, res.Attempted)
			}
			sm := summary{ratio: math.Float64bits(res.Metrics["cost_over_opt"].Value)}
			for _, o := range first {
				sm.hits += o.Hits
				sm.transfers += o.Transfers
			}
			runs = append(runs, sm)
		}
		if runs[0] != runs[1] {
			t.Errorf("%s: runs differ: %+v vs %+v", name, runs[0], runs[1])
		}
	}
}
