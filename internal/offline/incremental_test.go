package offline

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"datacache/internal/model"
)

func TestIncrementalMatchesBatchAtEveryPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 100; trial++ {
		seq, cm := randomInstance(rng, 5, 25)
		inc, err := NewIncremental(seq.M, seq.Origin, cm)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range seq.Requests {
			if err := inc.Append(r); err != nil {
				t.Fatal(err)
			}
			prefix := &model.Sequence{M: seq.M, Origin: seq.Origin, Requests: seq.Requests[:i+1]}
			batch, err := FastDP(prefix, cm)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEq(inc.Cost(), batch.Cost()) {
				t.Fatalf("trial %d prefix %d: incremental %v != batch %v",
					trial, i+1, inc.Cost(), batch.Cost())
			}
		}
		if inc.N() != seq.N() {
			t.Fatalf("N = %d, want %d", inc.N(), seq.N())
		}
	}
}

func TestIncrementalVectorsMatchBatch(t *testing.T) {
	seq, cm := Fig6Instance()
	inc, err := NewIncremental(seq.M, seq.Origin, cm)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range seq.Requests {
		if err := inc.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	res := inc.Result()
	batch, err := FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch.C {
		if !approxEq(res.C[i], batch.C[i]) {
			t.Errorf("C(%d): %v != %v", i, res.C[i], batch.C[i])
		}
		if math.IsInf(batch.D[i], 1) != math.IsInf(res.D[i], 1) ||
			(!math.IsInf(batch.D[i], 1) && !approxEq(res.D[i], batch.D[i])) {
			t.Errorf("D(%d): %v != %v", i, res.D[i], batch.D[i])
		}
	}
	if !approxEq(res.Cost(), 8.9) {
		t.Errorf("Fig6 streaming cost = %v, want 8.9", res.Cost())
	}
}

func TestIncrementalResultReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 80; trial++ {
		seq, cm := randomInstance(rng, 5, 20)
		inc, err := NewIncremental(seq.M, seq.Origin, cm)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range seq.Requests {
			if err := inc.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		res := inc.Result()
		sched, err := res.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(res.Seq); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := sched.Cost(cm); !approxEq(got, inc.Cost()) {
			t.Fatalf("trial %d: reconstructed %v != streaming %v", trial, got, inc.Cost())
		}
	}
}

func TestIncrementalResultIsolation(t *testing.T) {
	inc, err := NewIncremental(3, 1, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(model.Request{Server: 2, Time: 1}); err != nil {
		t.Fatal(err)
	}
	snap := inc.Result()
	costAt1 := snap.Cost()
	if err := inc.Append(model.Request{Server: 3, Time: 2}); err != nil {
		t.Fatal(err)
	}
	if snap.Cost() != costAt1 || snap.Seq.N() != 1 {
		t.Error("snapshot mutated by a later append")
	}
	if inc.Cost() <= costAt1 {
		t.Errorf("appending a new-server request should raise cost: %v -> %v", costAt1, inc.Cost())
	}
}

func TestIncrementalAppendErrors(t *testing.T) {
	if _, err := NewIncremental(0, 1, model.Unit); err == nil {
		t.Error("invalid m accepted")
	}
	if _, err := NewIncremental(2, 1, model.CostModel{}); err == nil {
		t.Error("invalid cost model accepted")
	}
	inc, err := NewIncremental(2, 1, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(model.Request{Server: 9, Time: 1}); err == nil {
		t.Error("out-of-range server accepted")
	}
	if err := inc.Append(model.Request{Server: 1, Time: 0}); err == nil {
		t.Error("time 0 accepted")
	}
	if err := inc.Append(model.Request{Server: 1, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(model.Request{Server: 2, Time: 1}); err == nil {
		t.Error("non-increasing time accepted")
	}
	if err := inc.Append(model.Request{Server: 2, Time: math.Inf(1)}); err == nil {
		t.Error("infinite time accepted")
	}
	if inc.N() != 1 {
		t.Errorf("failed appends must not change the stream: N=%d", inc.N())
	}
}

func TestIncrementalEmptyStream(t *testing.T) {
	inc, err := NewIncremental(2, 2, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Cost() != 0 || inc.N() != 0 {
		t.Errorf("fresh stream: cost %v, n %d", inc.Cost(), inc.N())
	}
	sched, err := inc.Result().Schedule()
	if err != nil || len(sched.Caches) != 0 {
		t.Errorf("empty schedule: %v (%v)", sched, err)
	}
}

// TestIncrementalResetEqualsNew: a used Incremental, after Reset, holds
// exactly NewIncremental's state vector for vector (contents, not
// capacity), and then serves a new stream bit for bit like a fresh one.
func TestIncrementalResetEqualsNew(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		used, cm := randomInstance(rng, 5, 60)
		next := make([]model.Request, 40)
		tm := 0.0
		for i := range next {
			tm += 0.01 + rng.Float64()*2
			next[i] = model.Request{Server: model.ServerID(1 + rng.Intn(used.M)), Time: tm}
		}
		inc, err := NewIncremental(used.M, used.Origin, cm)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range used.Requests {
			if err := inc.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		inc.Reset()
		ref, err := NewIncremental(used.M, used.Origin, cm)
		if err != nil {
			t.Fatal(err)
		}
		if inc.seq.M != ref.seq.M || inc.seq.Origin != ref.seq.Origin || inc.cm != ref.cm ||
			!slices.Equal(inc.seq.Requests, ref.seq.Requests) ||
			!slices.Equal(inc.c, ref.c) || !slices.Equal(inc.d, ref.d) || !slices.Equal(inc.b, ref.b) ||
			!slices.Equal(inc.cBr, ref.cBr) || !slices.Equal(inc.dBr, ref.dBr) || !slices.Equal(inc.dPv, ref.dPv) ||
			!slices.Equal(inc.prev, ref.prev) || !slices.Equal(inc.lastOn, ref.lastOn) ||
			!slices.Equal(inc.next, ref.next) || !slices.Equal(inc.a, ref.a) {
			t.Fatalf("trial %d: reset state\n%+v\nfresh\n%+v", trial, inc, ref)
		}
		for i, r := range next {
			if err := inc.Append(r); err != nil {
				t.Fatal(err)
			}
			if err := ref.Append(r); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(inc.Cost()) != math.Float64bits(ref.Cost()) {
				t.Fatalf("trial %d request %d: cost %v, fresh %v", trial, i, inc.Cost(), ref.Cost())
			}
		}
		if !reflect.DeepEqual(inc.Result(), ref.Result()) {
			t.Fatalf("trial %d: results differ after the second stream", trial)
		}
	}
}
