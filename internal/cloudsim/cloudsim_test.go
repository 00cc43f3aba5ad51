package cloudsim

import (
	"math"
	"math/rand"
	"testing"

	"datacache/internal/model"
	"datacache/internal/obs"
	"datacache/internal/online"
	"datacache/internal/workload"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

func TestSCPolicyMatchesClosedFormExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	models := []model.CostModel{model.Unit, {Mu: 1, Lambda: 3}, {Mu: 2, Lambda: 0.5}}
	for trial := 0; trial < 120; trial++ {
		cm := models[trial%len(models)]
		gens := workload.Standard(2+trial%5, cm.Delta())
		seq := gens[trial%len(gens)].Generate(rng, 1+rng.Intn(60))
		simRep, err := Run(NewSCPolicy(0, 0), seq, cm)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		onlineRes, err := online.Run(online.SpeculativeCaching{}, seq, cm)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !approxEq(simRep.Cost, onlineRes.Stats.Cost) {
			t.Fatalf("trial %d: simulator SC cost %v != closed-form SC cost %v\nsim=%s\nonl=%s",
				trial, simRep.Cost, onlineRes.Stats.Cost, simRep.Schedule, onlineRes.Schedule)
		}
		if simRep.Transfers != onlineRes.Stats.Transfers {
			t.Fatalf("trial %d: simulator transfers %d != closed-form %d",
				trial, simRep.Transfers, onlineRes.Stats.Transfers)
		}
	}
}

func TestSCPolicyWithEpochsMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		seq := workload.MarkovHop{M: 4, Stay: 0.6, MeanGap: 0.8}.Generate(rng, 40)
		for _, epoch := range []int{1, 4} {
			simRep, err := Run(NewSCPolicy(0, epoch), seq, model.Unit)
			if err != nil {
				t.Fatalf("trial %d epoch %d: %v", trial, epoch, err)
			}
			onlineRes, err := online.Run(online.SpeculativeCaching{EpochTransfers: epoch}, seq, model.Unit)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEq(simRep.Cost, onlineRes.Stats.Cost) {
				t.Fatalf("trial %d epoch %d: %v != %v", trial, epoch, simRep.Cost, onlineRes.Stats.Cost)
			}
		}
	}
}

func TestMigratePolicyMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 60; trial++ {
		seq := workload.Uniform{M: 5, MeanGap: 1}.Generate(rng, 30)
		simRep, err := Run(&MigratePolicy{}, seq, model.Unit)
		if err != nil {
			t.Fatal(err)
		}
		onlineRes, err := online.Run(online.AlwaysMigrate{}, seq, model.Unit)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(simRep.Cost, onlineRes.Stats.Cost) {
			t.Fatalf("trial %d: %v != %v", trial, simRep.Cost, onlineRes.Stats.Cost)
		}
	}
}

func TestReplicatePolicyMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		seq := workload.Zipf{M: 6, S: 1.4, MeanGap: 0.7}.Generate(rng, 30)
		simRep, err := Run(&ReplicatePolicy{}, seq, model.Unit)
		if err != nil {
			t.Fatal(err)
		}
		onlineRes, err := online.Run(online.KeepEverywhere{}, seq, model.Unit)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(simRep.Cost, onlineRes.Stats.Cost) {
			t.Fatalf("trial %d: %v != %v", trial, simRep.Cost, onlineRes.Stats.Cost)
		}
	}
}

func TestEnvInvariants(t *testing.T) {
	seq := &model.Sequence{M: 3, Origin: 1, Requests: []model.Request{{Server: 1, Time: 1}}}
	probe := &probePolicy{t: t}
	if _, err := Run(probe, seq, model.Unit); err != nil {
		t.Fatal(err)
	}
	if !probe.ran {
		t.Fatal("probe policy never ran")
	}
}

// probePolicy exercises the Env error paths from inside a run.
type probePolicy struct {
	t   *testing.T
	ran bool
}

func (p *probePolicy) Name() string                          { return "probe" }
func (p *probePolicy) Init(env *Env)                         {}
func (p *probePolicy) OnTimer(*Env, model.ServerID, float64) {}
func (p *probePolicy) OnRequest(env *Env, server model.ServerID, now float64) {
	p.ran = true
	if err := env.Transfer(1, 1); err == nil {
		p.t.Error("self-transfer accepted")
	}
	if err := env.Transfer(2, 3); err == nil {
		p.t.Error("transfer from non-holder accepted")
	}
	if err := env.Drop(2); err == nil {
		p.t.Error("drop of non-held copy accepted")
	}
	if err := env.Drop(1); err == nil {
		p.t.Error("drop of last copy accepted")
	}
	if err := env.Transfer(1, 2); err != nil {
		p.t.Errorf("legal transfer rejected: %v", err)
	}
	if err := env.Transfer(1, 2); err == nil {
		p.t.Error("transfer onto an existing copy accepted")
	}
	if got := len(env.Copies()); got != 2 {
		p.t.Errorf("copies = %d, want 2", got)
	}
	if env.M() != 3 || env.Now() != 1 {
		p.t.Errorf("env M/Now = %d/%v", env.M(), env.Now())
	}
}

// unservingPolicy ignores requests; the simulator must flag the violation.
type unservingPolicy struct{}

func (unservingPolicy) Name() string                            { return "unserving" }
func (unservingPolicy) Init(*Env)                               {}
func (unservingPolicy) OnRequest(*Env, model.ServerID, float64) {}
func (unservingPolicy) OnTimer(*Env, model.ServerID, float64)   {}

func TestSimulatorDetectsUnservedRequest(t *testing.T) {
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{{Server: 2, Time: 1}}}
	if _, err := Run(unservingPolicy{}, seq, model.Unit); err == nil {
		t.Fatal("unserved request not detected")
	}
}

func TestSimulatorRejectsInvalidInputs(t *testing.T) {
	if _, err := Run(&MigratePolicy{}, &model.Sequence{M: 0}, model.Unit); err == nil {
		t.Error("invalid sequence accepted")
	}
	seq := &model.Sequence{M: 2, Origin: 1}
	if _, err := Run(&MigratePolicy{}, seq, model.CostModel{}); err == nil {
		t.Error("invalid cost model accepted")
	}
}

func TestEmptySequenceRuns(t *testing.T) {
	seq := &model.Sequence{M: 2, Origin: 1}
	rep, err := Run(NewSCPolicy(0, 0), seq, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost != 0 {
		t.Errorf("cost = %v, want 0", rep.Cost)
	}
}

func TestTimersDeliveredInOrder(t *testing.T) {
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 1, Time: 1},
		{Server: 1, Time: 5},
	}}
	rec := &timerRecorder{}
	if _, err := Run(rec, seq, model.Unit); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rec.fired); i++ {
		if rec.fired[i] < rec.fired[i-1] {
			t.Fatalf("timers out of order: %v", rec.fired)
		}
	}
	if len(rec.fired) != 3 {
		t.Fatalf("fired = %v, want the three armed timers within the horizon", rec.fired)
	}
}

type timerRecorder struct {
	fired []float64
}

func (r *timerRecorder) Name() string { return "recorder" }
func (r *timerRecorder) Init(env *Env) {
	env.SetTimer(1, 3)
	env.SetTimer(1, 2)
	env.SetTimer(1, 4)
	env.SetTimer(1, 99) // beyond the horizon: never fires
}
func (r *timerRecorder) OnRequest(*Env, model.ServerID, float64) {}
func (r *timerRecorder) OnTimer(env *Env, server model.ServerID, now float64) {
	r.fired = append(r.fired, now)
}

// The simulator's trace vocabulary lives on as the first five obs event
// kinds; a trace of any run (dcsim -trace, a session's trace route) names
// its events with them.
func TestTraceKindString(t *testing.T) {
	names := map[obs.EventKind]string{
		obs.KindRequest:   "request",
		obs.KindHit:       "hit",
		obs.KindTransfer:  "transfer",
		obs.KindDrop:      "drop",
		obs.KindTimer:     "timer",
		obs.EventKind(99): "kind(99)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(k), got, want)
		}
	}
}
