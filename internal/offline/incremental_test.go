package offline

import (
	"math"
	"math/rand"
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

// TestIncrementalVectorsMatchBatch: after every append the streaming C, D
// and B vectors equal FastDP's on the same prefix bit for bit, on the
// Fig. 6 instance (C(7) = 8.9) and on random ones.
func TestIncrementalVectorsMatchBatch(t *testing.T) {
	fig6, fig6Model := Fig6Instance()
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 80; trial++ {
		seq, cm := fig6, fig6Model
		if trial > 0 {
			seq, cm = randomInstance(rng, 5, 20)
		}
		inc, err := NewIncremental(seq.M, seq.Origin, cm)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range seq.Requests {
			if err := inc.Append(r); err != nil {
				t.Fatal(err)
			}
			batch, err := FastDP(&model.Sequence{M: seq.M, Origin: seq.Origin, Requests: seq.Requests[:i+1]}, cm)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []struct {
				name       string
				inc, batch []float64
			}{{"C", inc.c, batch.C}, {"D", inc.d, batch.D}, {"B", inc.b, batch.B}} {
				if !slices.EqualFunc(v.inc, v.batch, func(x, y float64) bool {
					return math.Float64bits(x) == math.Float64bits(y)
				}) {
					t.Fatalf("trial %d prefix %d: streaming %s %v != FastDP %v", trial, i+1, v.name, v.inc, v.batch)
				}
			}
		}
	}
	inc, err := NewIncremental(fig6.M, fig6.Origin, fig6Model)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fig6.Requests {
		if err := inc.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if !approxEq(inc.Cost(), 8.9) {
		t.Errorf("Fig6 streaming cost = %v, want 8.9", inc.Cost())
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
			!slices.Equal(inc.lastOn, ref.lastOn) ||
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
		if !slices.Equal(inc.c, ref.c) || !slices.Equal(inc.d, ref.d) || !slices.Equal(inc.b, ref.b) {
			t.Fatalf("trial %d: vectors differ after the second stream", trial)
		}
	}
}
