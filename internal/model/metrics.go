package model

import "math"

// ServerMetrics aggregates one server's share of a schedule.
type ServerMetrics struct {
	Server       ServerID
	Requests     int     // requests that arrived at this server
	CacheServed  int     // of those, served by a local cache interval
	TransfersIn  int     // transfers delivering a copy to this server
	TransfersOut int     // transfers sourced from this server
	CachedTime   float64 // total time this server held a copy
	Utilization  float64 // CachedTime / horizon (0 when the horizon is 0)
}

// Metrics breaks a schedule down per server against its request sequence:
// who served what, where copies lived, and how long. It works for any
// feasible schedule — off-line optima, online runs, or simulator output —
// and powers the dcsim -metrics report.
func Metrics(seq *Sequence, s *Schedule) []ServerMetrics {
	out := make([]ServerMetrics, seq.M)
	for j := range out {
		out[j].Server = ServerID(j + 1)
	}
	for _, r := range seq.Requests {
		m := &out[r.Server-1]
		m.Requests++
		if s.HeldAt(r.Server, r.Time) {
			m.CacheServed++
		}
	}
	for _, tr := range s.Transfers {
		if tr.To >= 1 && int(tr.To) <= seq.M {
			out[tr.To-1].TransfersIn++
		}
		if tr.From >= 1 && int(tr.From) <= seq.M {
			out[tr.From-1].TransfersOut++
		}
	}
	for _, h := range s.Caches {
		if h.Server >= 1 && int(h.Server) <= seq.M {
			out[h.Server-1].CachedTime += h.Length()
		}
	}
	if end := seq.End(); end > 0 {
		for j := range out {
			out[j].Utilization = math.Min(1, out[j].CachedTime/end)
		}
	}
	return out
}
