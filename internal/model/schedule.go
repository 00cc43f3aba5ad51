package model

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// CacheInterval records that a copy of the data item is held in cache on
// Server for the closed time interval [From, To] — the paper's H(s, x, y).
// Its caching cost is Mu * (To - From).
type CacheInterval struct {
	Server ServerID
	From   float64
	To     float64
}

// Length returns To - From.
func (h CacheInterval) Length() float64 { return h.To - h.From }

// Contains reports whether time t lies in [From, To].
func (h CacheInterval) Contains(t float64) bool { return h.From <= t && t <= h.To }

// Transfer records a data item transfer Tr(From, To, Time): the item is
// copied from server From to server To at the (instantaneous) time Time, at
// cost Lambda. Replication is a transfer whose source copy survives;
// migration is one whose source copy is deleted right after — the schedule
// encodes the difference through cache intervals, not through the transfer.
type Transfer struct {
	From ServerID
	To   ServerID
	Time float64
}

// Schedule is a set of cache intervals and transfers (Definition 1). A
// feasible schedule keeps at least one copy alive over the whole horizon and
// has the item present at s_i when r_i fires; Validate checks both.
type Schedule struct {
	Caches    []CacheInterval
	Transfers []Transfer
}

// AddCache appends a cache interval H(server, from, to).
func (s *Schedule) AddCache(server ServerID, from, to float64) {
	s.Caches = append(s.Caches, CacheInterval{Server: server, From: from, To: to})
}

// AddTransfer appends a transfer Tr(from, to, at).
func (s *Schedule) AddTransfer(from, to ServerID, at float64) {
	s.Transfers = append(s.Transfers, Transfer{From: from, To: to, Time: at})
}

// Cost prices the schedule under cm: Mu times the total cached time plus
// Lambda per transfer. Call Normalize first if intervals may overlap on a
// server, otherwise overlapping stretches are charged more than once.
//
// The cached time is summed in the one order every cost in the
// repository is priced in: interval lengths within each run of
// consecutive intervals on one server first, then those per-run sums in
// slice order. On a normalized schedule the runs are the servers in
// ascending order — the order engine.Stream's per-server ledger keeps in
// O(M), so a stream's Cost equals the Cost of its normalized schedule bit
// for bit.
func (s *Schedule) Cost(cm CostModel) float64 {
	return cm.Price(s.heldTime(), len(s.Transfers))
}

// CachingCost returns only the Mu * time part of the cost.
func (s *Schedule) CachingCost(cm CostModel) float64 {
	return cm.Mu * s.heldTime()
}

// heldTime sums the cached time in the order Cost documents.
func (s *Schedule) heldTime() float64 {
	total, run := 0.0, 0.0
	for i, h := range s.Caches {
		if i > 0 && h.Server != s.Caches[i-1].Server {
			total += run
			run = 0
		}
		run += h.Length()
	}
	return total + run
}

// TransferCost returns only the Lambda * count part of the cost.
func (s *Schedule) TransferCost(cm CostModel) float64 {
	return cm.Lambda * float64(len(s.Transfers))
}

// Normalize sorts intervals and transfers by time and merges overlapping or
// touching cache intervals on the same server, so that the schedule prices
// each cached second exactly once. Zero-length intervals are dropped.
// It allocates nothing.
func (s *Schedule) Normalize() {
	slices.SortFunc(s.Caches, func(a, b CacheInterval) int {
		if a.Server != b.Server {
			return cmp.Compare(a.Server, b.Server)
		}
		return cmp.Compare(a.From, b.From)
	})
	merged := s.Caches[:0]
	for _, h := range s.Caches {
		if h.To < h.From {
			h.From, h.To = h.To, h.From
		}
		if len(merged) > 0 {
			last := &merged[len(merged)-1]
			if last.Server == h.Server && Merges(last.To, h.From) {
				if h.To > last.To {
					last.To = h.To
				}
				continue
			}
		}
		merged = append(merged, h)
	}
	keep := merged[:0]
	for _, h := range merged {
		if h.Length() > 0 {
			keep = append(keep, h)
		}
	}
	s.Caches = keep
	slices.SortFunc(s.Transfers, func(a, b Transfer) int { return cmp.Compare(a.Time, b.Time) })
}

// timeEps absorbs floating-point jitter when comparing schedule times.
const timeEps = 1e-9

// Merges reports whether a cache interval starting at from continues an
// earlier interval on the same server that ends at to: Normalize merges
// the two into one, pricing the jitter-sized gap between them as held
// time. It is the one definition of which intervals merge; engine.Stream's
// ledger applies it as copies are transferred in.
func Merges(to, from float64) bool { return from <= to+timeEps }

// HeldAt reports whether some cache interval on server holds the item at
// time t.
func (s *Schedule) HeldAt(server ServerID, t float64) bool {
	for _, h := range s.Caches {
		if h.Server == server && h.From-timeEps <= t && t <= h.To+timeEps {
			return true
		}
	}
	return false
}

// heldAt is HeldAt on a normalized schedule, in O(log C). There a
// server's intervals are disjoint and sorted, so their starts and ends
// both increase, and only the first one that ends at or after t (within
// timeEps) can hold the item at t.
func (s *Schedule) heldAt(server ServerID, t float64) bool {
	k := sort.Search(len(s.Caches), func(i int) bool {
		h := s.Caches[i]
		return h.Server > server || h.Server == server && t <= h.To+timeEps
	})
	return k < len(s.Caches) && s.Caches[k].Server == server && s.Caches[k].From-timeEps <= t
}

// transferNear reports whether a transfer into server lands within
// timeEps of t, on a normalized schedule. Its transfers are sorted by
// time, so the ones within timeEps of t are one run that starts where a
// binary search finds it.
func (s *Schedule) transferNear(server ServerID, t float64) bool {
	trs := s.Transfers
	k := sort.Search(len(trs), func(i int) bool { return trs[i].Time-t >= -timeEps })
	for ; k < len(trs) && trs[k].Time-t <= timeEps; k++ {
		if trs[k].To == server {
			return true
		}
	}
	return false
}

// Validate checks feasibility of the schedule for the given instance:
//
//  1. Every request r_i is served — either a cache interval on s_i contains
//     t_i, or a transfer ends at (s_i, t_i) whose source holds a live copy at
//     t_i (Observation 2).
//  2. Copy provenance — after normalization, every maximal cache interval
//     either starts at time 0 on the origin, starts at a transfer into its
//     server, or starts at a request served at that server at that instant
//     (a delivered copy that is then held).
//  3. Coverage — the union of cache intervals covers [0, t_n] with no gaps,
//     so at least one copy is alive at all times (problem condition 1).
//  4. Transfer provenance — every transfer's source holds a live copy at the
//     transfer time.
//
// Validate does not require minimality or optimality. Each lookup is a
// binary search over the normalized schedule, so it runs in
// O((n + C + T) log(C + T)).
func (s *Schedule) Validate(seq *Sequence) error {
	if err := seq.Validate(); err != nil {
		return err
	}
	norm := &Schedule{
		Caches:    append([]CacheInterval(nil), s.Caches...),
		Transfers: append([]Transfer(nil), s.Transfers...),
	}
	norm.Normalize()

	// 4 (checked first so rule 1 may rely on it): transfer sources live.
	for _, tr := range norm.Transfers {
		if tr.From == tr.To {
			return fmt.Errorf("model: transfer at t=%v from server %d to itself", tr.Time, tr.From)
		}
		if !norm.heldAt(tr.From, tr.Time) {
			return fmt.Errorf("model: transfer at t=%v sourced from server %d which holds no copy then", tr.Time, tr.From)
		}
	}

	// 1: every request served.
	for i, r := range seq.Requests {
		if !norm.heldAt(r.Server, r.Time) && !norm.transferNear(r.Server, r.Time) {
			return fmt.Errorf("model: request %d at (s%d, t=%v) is not served by cache or transfer", i+1, r.Server, r.Time)
		}
	}

	// 2: provenance of each maximal interval. One that starts within
	// timeEps of 0 is the origin's, or else a copy delivered by a
	// transfer at a request that early.
	for _, h := range norm.Caches {
		if h.From <= timeEps {
			if h.Server != seq.Origin && !norm.transferNear(h.Server, h.From) {
				return fmt.Errorf("model: cache on server %d starts at t=0 but the origin is %d", h.Server, seq.Origin)
			}
			continue
		}
		if !norm.transferNear(h.Server, h.From) {
			// A held copy may also originate at a request served at this
			// exact point by an incoming transfer already checked above, or
			// by an interval that was merged; after Normalize those cases
			// collapse, so reaching here without a transfer is an orphan.
			return fmt.Errorf("model: cache on server %d starting at t=%v has no originating transfer", h.Server, h.From)
		}
	}

	// 3: coverage of [0, t_n].
	if err := coverage(norm.Caches, seq.End()); err != nil {
		return err
	}
	return nil
}

// coverage checks that the union of intervals covers [0, end].
func coverage(caches []CacheInterval, end float64) error {
	if end <= 0 {
		return nil
	}
	ivs := make([]CacheInterval, len(caches))
	copy(ivs, caches)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].From < ivs[b].From })
	reach := 0.0
	for _, h := range ivs {
		if h.From > reach+timeEps {
			return fmt.Errorf("model: no copy alive on (%v, %v)", reach, h.From)
		}
		if h.To > reach {
			reach = h.To
		}
		if reach >= end-timeEps {
			return nil
		}
	}
	return fmt.Errorf("model: no copy alive on (%v, %v)", reach, end)
}

// String renders the schedule compactly for logs and golden tests.
func (s *Schedule) String() string {
	var b strings.Builder
	b.WriteString("schedule{")
	for i, h := range s.Caches {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "H(s%d,%.4g,%.4g)", h.Server, h.From, h.To)
	}
	for _, tr := range s.Transfers {
		fmt.Fprintf(&b, " Tr(s%d->s%d,%.4g)", tr.From, tr.To, tr.Time)
	}
	b.WriteString("}")
	return b.String()
}

// CountReplicas returns the maximum number of copies simultaneously alive
// at any point of the horizon. A migration hand-off — one interval ending
// exactly where the next begins — counts as a single copy.
func (s *Schedule) CountReplicas(seq *Sequence) int {
	type event struct {
		at    float64
		delta int
	}
	evs := make([]event, 0, 2*len(s.Caches))
	for _, h := range s.Caches {
		evs = append(evs, event{h.From, +1}, event{h.To, -1})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return evs[a].delta < evs[b].delta // close before open at hand-offs
	})
	alive, max := 0, 0
	for _, e := range evs {
		alive += e.delta
		if alive > max {
			max = alive
		}
	}
	return max
}
