package model

import (
	"math"
	"sort"
)

// SequenceStats summarizes a request sequence's shape: the quantities that
// determine how the caching algorithms will behave on it (revisit gaps
// against the speculative window, server skew, arrival density).
type SequenceStats struct {
	N         int
	M         int
	Horizon   float64 // t_n
	MeanGap   float64 // mean inter-arrival
	StayFrac  float64 // fraction of requests on the previous request's server
	TopShare  float64 // share of the busiest server
	Busiest   ServerID
	MedianRev float64 // median same-server revisit gap (σ), NaN if no revisits
	Untouched int     // servers with no requests
}

// AnalyzeSequence computes the summary. Invalid or empty sequences yield a
// zero value with N/M filled where possible.
func AnalyzeSequence(seq *Sequence) SequenceStats {
	st := SequenceStats{N: seq.N(), M: seq.M, MedianRev: math.NaN()}
	if seq.N() == 0 {
		st.Untouched = seq.M
		return st
	}
	st.Horizon = seq.End()
	st.MeanGap = st.Horizon / float64(seq.N())
	counts := make([]int, seq.M+1)
	stays := 0
	var revisits []float64
	sig := seq.Sigma()
	for i, r := range seq.Requests {
		counts[r.Server]++
		if i > 0 && r.Server == seq.Requests[i-1].Server {
			stays++
		}
		if !math.IsInf(sig[i+1], 1) {
			revisits = append(revisits, sig[i+1])
		}
	}
	if seq.N() > 1 {
		st.StayFrac = float64(stays) / float64(seq.N()-1)
	}
	top := 0
	for j := 1; j <= seq.M; j++ {
		if counts[j] == 0 {
			st.Untouched++
		}
		if counts[j] > top {
			top = counts[j]
			st.Busiest = ServerID(j)
		}
	}
	st.TopShare = float64(top) / float64(seq.N())
	if len(revisits) > 0 {
		sort.Float64s(revisits)
		st.MedianRev = revisits[len(revisits)/2]
	}
	return st
}
