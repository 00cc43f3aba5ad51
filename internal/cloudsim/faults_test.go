package cloudsim

import (
	"math"
	"math/rand"
	"testing"

	"datacache/internal/model"
	"datacache/internal/online"
	"datacache/internal/workload"
)

func TestNoFaultsMatchesClosedFormSC(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	for trial := 0; trial < 80; trial++ {
		seq := workload.MarkovHop{M: 4, Stay: 0.6, MeanGap: 0.8}.Generate(rng, 1+rng.Intn(40))
		rep, err := RunWithFaults(seq, model.Unit, nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := online.Run(online.SpeculativeCaching{}, seq, model.Unit)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(rep.Cost, ref.Stats.Cost) {
			t.Fatalf("trial %d: faultless run %v != closed form %v", trial, rep.Cost, ref.Stats.Cost)
		}
		if rep.Uploads != 0 || rep.Lost != 0 {
			t.Fatalf("trial %d: phantom faults %+v", trial, rep)
		}
	}
}

func TestTotalLossTriggersUpload(t *testing.T) {
	// Single copy on s1; a fault destroys it at t=2; the request at t=3
	// must re-upload at β.
	cm := model.Unit
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 1, Time: 1},
		{Server: 1, Time: 3},
	}}
	const beta = 7.5
	rep, err := RunWithFaults(seq, cm, []Fault{{Server: 1, At: 2}}, beta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 1 || rep.Uploads != 1 || rep.Transfers != 0 {
		t.Fatalf("report = %+v, want 1 loss and 1 upload", rep)
	}
	// Cost: caching s1 [0,2] (2) + β + caching s1 [3,3] (0) = 2 + 7.5.
	if !approxEq(rep.Cost, 2+beta) {
		t.Errorf("cost = %v, want %v", rep.Cost, 2+beta)
	}
}

func TestFaultOnReplicaRecoversViaTransfer(t *testing.T) {
	// Two copies alive; losing one leaves service intact — the next
	// request on the faulted server is a plain transfer, no upload.
	cm := model.Unit
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 1},   // replicate: s1 and s2 alive
		{Server: 2, Time: 1.5}, // keep s2 fresh
		{Server: 2, Time: 2.1},
		{Server: 1, Time: 2.5}, // s1 was faulted at 2.0: transfer, not upload
	}}
	rep, err := RunWithFaults(seq, cm, []Fault{{Server: 1, At: 2.0}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 1 {
		t.Fatalf("lost = %d, want 1", rep.Lost)
	}
	if rep.Uploads != 0 {
		t.Errorf("uploads = %d, want 0 (a replica survived)", rep.Uploads)
	}
	if rep.Transfers != 2 { // t=1 replication and t=2.5 recovery
		t.Errorf("transfers = %d, want 2", rep.Transfers)
	}
}

func TestFaultOnDeadServerIsNoop(t *testing.T) {
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{{Server: 1, Time: 1}}}
	rep, err := RunWithFaults(seq, model.Unit, []Fault{{Server: 2, At: 0.5}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 || rep.Uploads != 0 {
		t.Errorf("noop fault changed the run: %+v", rep)
	}
}

func TestFaultValidation(t *testing.T) {
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{{Server: 1, Time: 1}}}
	if _, err := RunWithFaults(seq, model.Unit, []Fault{{Server: 9, At: 1}}, 1); err == nil {
		t.Error("out-of-range fault accepted")
	}
	if _, err := RunWithFaults(seq, model.Unit, nil, -1); err == nil {
		t.Error("negative β accepted")
	}
	if _, err := RunWithFaults(seq, model.Unit, nil, math.Inf(1)); err == nil {
		t.Error("infinite β accepted")
	}
	if _, err := RunWithFaults(&model.Sequence{M: 0}, model.Unit, nil, 1); err == nil {
		t.Error("invalid sequence accepted")
	}
}

func TestFaultStormCostMonotoneInBeta(t *testing.T) {
	// With every server repeatedly wiped, the bill grows with β.
	rng := rand.New(rand.NewSource(241))
	seq := workload.Uniform{M: 3, MeanGap: 1}.Generate(rng, 60)
	var faults []Fault
	for ft := 0.5; ft < seq.End(); ft += 0.9 {
		faults = append(faults, Fault{Server: model.ServerID(1 + int(ft)%3), At: ft})
	}
	costAt := func(beta float64) float64 {
		rep, err := RunWithFaults(seq, model.Unit, faults, beta)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Uploads == 0 {
			t.Fatal("fault storm produced no uploads; test premise broken")
		}
		return rep.Cost
	}
	if c1, c2 := costAt(1), costAt(10); c2 <= c1 {
		t.Errorf("cost not monotone in β: %v vs %v", c1, c2)
	}
}
