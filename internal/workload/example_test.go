package workload_test

import (
	"fmt"
	"math/rand"

	"datacache/internal/model"
	"datacache/internal/workload"
)

// Generating a reproducible sticky workload and inspecting its locality.
func ExampleMarkovHop() {
	gen := workload.MarkovHop{M: 4, Stay: 0.9, MeanGap: 1}
	seq := gen.Generate(rand.New(rand.NewSource(1)), 1000)
	st := model.AnalyzeSequence(seq)
	fmt.Printf("%s: n=%d, stay=%.2f\n", gen.Name(), st.N, st.StayFrac)
	// Output: markov(m=4,p=0.9): n=1000, stay=0.90
}

// Time-unit freedom: scaling times by α and the caching rate by 1/α leaves
// every schedule cost unchanged.
func ExampleScale() {
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 1},
		{Server: 2, Time: 3},
	}}
	scaled, err := workload.Scale(seq, 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("last request moved from t=%g to t=%g\n",
		seq.Requests[1].Time, scaled.Requests[1].Time)
	// Output: last request moved from t=3 to t=30
}
