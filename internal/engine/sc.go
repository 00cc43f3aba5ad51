package engine

import (
	"fmt"
	"math"

	"datacache/internal/model"
)

// SC is the canonical implementation of the paper's Speculative Caching
// rules (Section V), expressed as a Decider: a copy migrated to or touched
// on a server speculatively stays alive for another window past its last
// use; a request inside the window is a cache hit and refreshes the copy,
// otherwise it is served by a transfer from the most recently refreshed
// live copy, and both transfer endpoints refresh. Expired copies are
// deleted — except the last copy, which never dies; when a group of copies
// expires together and would empty the cluster, the youngest copy is kept
// (step 4's tie-break, preserving the target of the group's transfer).
//
// Every SC-family policy in the repository is a parameterization of this
// type: TTL(τ) sets Window, epoch restarts set EpochTransfers, the
// capacity-capped variant sets MaxCopies, heterogeneous clusters and the
// adaptive/randomized policies supply WindowOf and PickSource hooks.
type SC struct {
	// Window, when positive, overrides the speculative window Δt = λ/μ
	// derived from State.Model — the TTL(τ) generalization.
	Window float64

	// WindowOf, when set, supplies the retention window per server and is
	// consulted at every refresh; it takes precedence over Window. The
	// heterogeneous per-server windows and the adaptive/randomized window
	// sources plug in here.
	WindowOf func(server model.ServerID) float64

	// EpochTransfers is the epoch size: after this many transfers the
	// algorithm restarts with a single copy at the just-served server
	// (step 3, third bullet). Zero or negative runs one unbounded epoch.
	EpochTransfers int

	// MaxCopies, when positive, caps the number of simultaneously live
	// copies: when a transfer would exceed the cap, the copies with the
	// earliest speculative deadlines are evicted immediately.
	MaxCopies int

	// PickSource, when set, chooses the transfer source for a miss from
	// the live holders (alive is indexed 1..m; return 0 for none). The
	// default serves from the freshest copy — latest deadline, ties to the
	// younger copy. Heterogeneous clusters pick the cheapest outbound edge.
	PickSource func(alive []bool, to model.ServerID) model.ServerID

	// OnReset, when set, observes each epoch restart (analysis hook).
	OnReset func(t float64, keep model.ServerID)

	m       int
	window  float64 // resolved default window
	alive   []bool
	created []float64
	expiry  []float64
	nAlive  int
	xfers   int // transfers in the current epoch

	acts  []Action
	group []model.ServerID
}

// Name implements Decider.
func (s *SC) Name() string {
	switch {
	case s.MaxCopies > 0:
		return fmt.Sprintf("SC(cap=%d)", s.MaxCopies)
	case s.WindowOf != nil:
		return "SC(window-fn)"
	case s.Window > 0:
		return fmt.Sprintf("TTL(%g)", s.Window)
	case s.EpochTransfers > 0:
		return fmt.Sprintf("SC(epoch=%d)", s.EpochTransfers)
	default:
		return "SC"
	}
}

// Init implements Decider.
func (s *SC) Init(st State) []Action {
	s.m = st.M
	s.window = s.Window
	if s.window <= 0 {
		s.window = st.Model.Delta()
	}
	s.alive = cleared(s.alive, st.M+1)
	s.created = cleared(s.created, st.M+1)
	s.expiry = cleared(s.expiry, st.M+1)
	s.alive[st.Origin] = true
	s.nAlive = 1
	s.xfers = 0
	s.acts = s.acts[:0]
	s.group = s.group[:0]
	s.refresh(st.Origin, 0)
	return s.acts
}

// cleared returns a zeroed slice of length n, reusing buf's storage when
// it is large enough, so re-Initing a decider allocates nothing.
func cleared[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// OnRequest implements Decider: hit-refresh or transfer-from-source, then
// the capacity and epoch rules.
func (s *SC) OnRequest(server model.ServerID, t float64) ([]Action, error) {
	s.acts = s.acts[:0]
	if s.alive[server] {
		// Cache hit: t lies inside the copy's window; refresh it.
		s.refresh(server, t)
		return s.acts, nil
	}
	src := s.pickSource(server)
	if src == 0 {
		return nil, fmt.Errorf("engine: no live copy at t=%v (SC invariant broken)", t)
	}
	s.acts = append(s.acts, Action{Kind: ActTransfer, From: src, Server: server, Time: t})
	s.alive[server] = true
	s.nAlive++
	s.created[server] = t
	s.refresh(server, t)
	s.refresh(src, t) // the source of a transfer is refreshed too
	s.xfers++
	// Capacity cap: evict the copies with the earliest deadlines until the
	// budget holds again; the just-created copy carries the latest deadline
	// and is never the victim.
	for s.MaxCopies > 0 && s.nAlive > s.MaxCopies {
		victim, at := model.ServerID(0), math.Inf(1)
		for j := model.ServerID(1); int(j) <= s.m; j++ {
			if s.alive[j] && j != server && s.expiry[j] < at {
				victim, at = j, s.expiry[j]
			}
		}
		if victim == 0 {
			break
		}
		s.kill(victim, t)
	}
	if s.EpochTransfers > 0 && s.xfers >= s.EpochTransfers {
		// Epoch restart: every copy except the just-served one is deleted.
		for j := model.ServerID(1); int(j) <= s.m; j++ {
			if j != server && s.alive[j] {
				s.kill(j, t)
			}
		}
		s.xfers = 0
		if s.OnReset != nil {
			s.OnReset(t, server)
		}
	}
	return s.acts, nil
}

// OnTimer implements Decider: step 4's grouped expiry. Every copy whose
// deadline is exactly t expires together; the youngest is kept alive when
// the group would otherwise empty the cluster. A lone copy reaching its
// deadline is pinned — its deadline becomes +Inf and no further timer is
// armed, because the last copy never dies; the next touch re-pins a finite
// deadline. (The frozen reference implementation instead jumps the lone
// deadline window by window; both leave the same schedule, since a lone
// copy's deadline is never consulted until its next refresh.)
func (s *SC) OnTimer(t float64) []Action {
	s.acts = s.acts[:0]
	s.group = s.group[:0]
	for j := model.ServerID(1); int(j) <= s.m; j++ {
		if s.alive[j] && s.expiry[j] == t {
			s.group = append(s.group, j)
		}
	}
	if len(s.group) == 0 {
		return nil // stale timer superseded by a refresh or deletion
	}
	// Youngest copy last, so it survives if the group would drain the pool.
	youngest := s.group[0]
	for _, j := range s.group {
		if s.created[j] > s.created[youngest] {
			youngest = j
		}
	}
	for _, j := range s.group {
		if j != youngest {
			s.kill(j, t)
		}
	}
	switch {
	case s.nAlive > 1:
		s.kill(youngest, t)
	case len(s.group) == 1:
		s.expiry[youngest] = math.Inf(1) // pin the lone copy: it never dies
	default:
		s.refresh(youngest, t) // group survivor: extended at its deadline
	}
	return s.acts
}

// refresh moves a live copy's speculative deadline to t plus its current
// retention window, arming a timer for the new deadline.
func (s *SC) refresh(server model.ServerID, t float64) {
	w := s.windowFor(server)
	if w <= 0 {
		w = 1e-12 // zero-retention still needs a strictly later deadline
	}
	s.expiry[server] = t + w
	s.acts = append(s.acts, Action{Kind: ActArmTimer, Server: server, Time: s.expiry[server]})
}

func (s *SC) windowFor(server model.ServerID) float64 {
	if s.WindowOf != nil {
		return s.WindowOf(server)
	}
	return s.window
}

// kill deletes a live copy at time t.
func (s *SC) kill(server model.ServerID, t float64) {
	s.acts = append(s.acts, Action{Kind: ActDrop, Server: server, Time: t})
	s.alive[server] = false
	s.nAlive--
}

// pickSource selects the transfer source for a miss.
func (s *SC) pickSource(to model.ServerID) model.ServerID {
	if s.PickSource != nil {
		return s.PickSource(s.alive, to)
	}
	// Freshest copy: latest deadline — by the refresh discipline the most
	// recently created or touched copy (the paper serves misses "from s^k
	// where r_{i-1} is made"). Deadline ties break to the younger copy.
	best := model.ServerID(0)
	bestAt, bestCreated := math.Inf(-1), math.Inf(-1)
	for j := model.ServerID(1); int(j) <= s.m; j++ {
		if !s.alive[j] {
			continue
		}
		if s.expiry[j] > bestAt || (s.expiry[j] == bestAt && s.created[j] > bestCreated) {
			best, bestAt, bestCreated = j, s.expiry[j], s.created[j]
		}
	}
	return best
}
