package offline

import (
	"math"
	"testing"

	"datacache/internal/model"
)

// decodeInstance turns raw fuzz bytes into a valid small instance: the
// first two bytes choose m and the cost model, the rest alternate server
// picks and time gaps. Returns nil when the bytes are too short to matter.
func decodeInstance(data []byte) (*model.Sequence, model.CostModel) {
	if len(data) < 4 {
		return nil, model.CostModel{}
	}
	m := 1 + int(data[0]%6)
	cm := model.CostModel{
		Mu:     0.1 + float64(data[1]%40)/10,
		Lambda: 0.1 + float64(data[2]%40)/10,
	}
	seq := &model.Sequence{M: m, Origin: model.ServerID(1 + int(data[3])%m)}
	t := 0.0
	for i := 4; i+1 < len(data) && seq.N() < 24; i += 2 {
		t += 0.01 + float64(data[i+1]%200)/50
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + int(data[i])%m),
			Time:   t,
		})
	}
	return seq, cm
}

// FuzzDPAgreement cross-checks all four solvers and the reconstruction on
// arbitrary decoded instances, and requires the streaming DP's cost after
// every append to equal FastDP's C[i] bit for bit. Run with
// `go test -fuzz=FuzzDPAgreement`; in normal test runs it exercises the
// seed corpus.
func FuzzDPAgreement(f *testing.F) {
	f.Add([]byte{3, 10, 10, 0, 1, 50, 2, 120, 0, 10, 1, 255, 2, 3})
	f.Add([]byte{1, 1, 39, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 39, 1, 4, 4, 199, 3, 1, 2, 90, 1, 90, 0, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, cm := decodeInstance(data)
		if seq == nil {
			return
		}
		if err := seq.Validate(); err != nil {
			t.Skip()
		}
		fast, err := FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncremental(seq.M, seq.Origin, cm)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range seq.Requests {
			if err := inc.Append(r); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(inc.Cost()) != math.Float64bits(fast.C[i+1]) {
				t.Fatalf("prefix %d: streaming %v != FastDP C %v\nseq=%+v cm=%+v", i+1, inc.Cost(), fast.C[i+1], seq, cm)
			}
		}
		naive, err := NaiveDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := SweepDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := SubsetOptimal(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-6 * (1 + math.Abs(oracle))
		if math.Abs(fast.Cost()-naive.Cost()) > tol ||
			math.Abs(fast.Cost()-sweep.Cost()) > tol ||
			math.Abs(fast.Cost()-oracle) > tol {
			t.Fatalf("disagreement: fast=%v naive=%v sweep=%v oracle=%v\nseq=%+v cm=%+v",
				fast.Cost(), naive.Cost(), sweep.Cost(), oracle, seq, cm)
		}
		sched, err := fast.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(seq); err != nil {
			t.Fatalf("infeasible reconstruction: %v\nseq=%+v", err, seq)
		}
		if got := sched.Cost(cm); math.Abs(got-fast.Cost()) > tol {
			t.Fatalf("reconstructed %v != DP %v", got, fast.Cost())
		}
		single, err := SingleCopyOptimal(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		if single < fast.Cost()-tol {
			t.Fatalf("single-copy %v below optimum %v", single, fast.Cost())
		}
		b, err := ComputeBounds(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		if b.Lower > fast.Cost()+tol || (seq.N() > 0 && b.Upper < fast.Cost()-tol) {
			t.Fatalf("bounds [%v, %v] exclude optimum %v", b.Lower, b.Upper, fast.Cost())
		}
	})
}
