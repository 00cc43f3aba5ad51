package engine

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"datacache/internal/model"
)

// resetDeciders builds fresh deciders of every engine-level kind.
func resetDeciders() map[string]func() Decider {
	return map[string]func() Decider{
		"sc":        func() Decider { return &SC{} },
		"sc-epoch":  func() Decider { return &SC{EpochTransfers: 3} },
		"ttl":       func() Decider { return &SC{Window: 0.5} },
		"sc-cap":    func() Decider { return &SC{MaxCopies: 2} },
		"migrate":   func() Decider { return &Migrate{} },
		"replicate": func() Decider { return &Replicate{} },
	}
}

// randomRequests draws n requests over m servers at increasing times.
func randomRequests(rng *rand.Rand, m, n int) []model.Request {
	out := make([]model.Request, n)
	t := 0.0
	for i := range out {
		t += 0.05 + rng.ExpFloat64()
		out[i] = model.Request{Server: model.ServerID(1 + rng.Intn(m)), Time: t}
	}
	return out
}

// sameStream compares two streams field by field, slice contents rather
// than capacity; the deciders are compared by the caller.
func sameStream(t *testing.T, where string, got, want *Stream) {
	t.Helper()
	if got.st != want.st || got.nAlive != want.nAlive || got.last != want.last ||
		got.served != want.served || got.hits != want.hits || got.drops != want.drops ||
		got.finished != want.finished || got.obs != want.obs {
		t.Fatalf("%s: scalar state differs:\n got %+v\nwant %+v", where, *got, *want)
	}
	if !slices.Equal(got.srv, want.srv) {
		t.Fatalf("%s: ledger %+v, want %+v", where, got.srv, want.srv)
	}
	if !slices.Equal(got.timers, want.timers) {
		t.Fatalf("%s: timers %+v, want %+v", where, got.timers, want.timers)
	}
	if !slices.Equal(got.sched.Caches, want.sched.Caches) || !slices.Equal(got.sched.Transfers, want.sched.Transfers) {
		t.Fatalf("%s: schedule %+v, want %+v", where, got.sched, want.sched)
	}
}

// sameSC compares two SC deciders field by field (the hooks are nil in
// both).
func sameSC(t *testing.T, where string, got, want *SC) {
	t.Helper()
	if got.m != want.m || got.window != want.window || got.nAlive != want.nAlive || got.xfers != want.xfers {
		t.Fatalf("%s: scalar state differs:\n got %+v\nwant %+v", where, *got, *want)
	}
	for _, f := range []struct {
		name      string
		got, want []float64
	}{{"created", got.created, want.created}, {"expiry", got.expiry, want.expiry}} {
		if !slices.Equal(f.got, f.want) {
			t.Fatalf("%s: %s %v, want %v", where, f.name, f.got, f.want)
		}
	}
	if !slices.Equal(got.alive, want.alive) || !slices.Equal(got.acts, want.acts) || !slices.Equal(got.group, want.group) {
		t.Fatalf("%s: alive/acts/group %v %v %v, want %v %v %v", where,
			got.alive, got.acts, got.group, want.alive, want.acts, want.group)
	}
}

// TestStreamResetEqualsNewStream: a used stream, finished or not, equals
// a NewStream over a fresh decider after Reset, and then serves the next
// run identically.
func TestStreamResetEqualsNewStream(t *testing.T) {
	st := State{M: 5, Origin: 2, Model: model.CostModel{Mu: 1, Lambda: 2}}
	rng := rand.New(rand.NewSource(5))
	for name, fresh := range resetDeciders() {
		for _, finish := range []bool{false, true} {
			used, err := NewStream(fresh(), st)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range randomRequests(rng, st.M, 200) {
				if _, err := used.Serve(r.Server, r.Time); err != nil {
					t.Fatal(err)
				}
			}
			if finish {
				if _, err := used.Finish(used.Now() + 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := used.Reset(); err != nil {
				t.Fatal(err)
			}
			ref, err := NewStream(fresh(), st)
			if err != nil {
				t.Fatal(err)
			}
			sameStream(t, name+" after Reset", used, ref)
			if sc, ok := used.d.(*SC); ok {
				sameSC(t, name+" after Reset", sc, ref.d.(*SC))
			}
			for i, r := range randomRequests(rng, st.M, 150) {
				got, err1 := used.Serve(r.Server, r.Time)
				want, err2 := ref.Serve(r.Server, r.Time)
				if got != want || (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s request %d: %+v (%v), fresh stream %+v (%v)", name, i, got, err1, want, err2)
				}
			}
			sameStream(t, name+" after a second run", used, ref)
		}
	}
}

// TestSCReInitEqualsFresh: re-Initing a used SC, over the same or a
// smaller cluster, leaves it equal to a fresh SC's Init, field by field.
func TestSCReInitEqualsFresh(t *testing.T) {
	cm := model.CostModel{Mu: 1, Lambda: 2}
	rng := rand.New(rand.NewSource(9))
	for _, m := range []int{6, 3} {
		used, err := NewStream(&SC{EpochTransfers: 4}, State{M: 6, Origin: 1, Model: cm})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range randomRequests(rng, 6, 300) {
			if _, err := used.Serve(r.Server, r.Time); err != nil {
				t.Fatal(err)
			}
		}
		sc := used.d.(*SC)
		st := State{M: m, Origin: 2, Model: cm}
		gotActs := slices.Clone(sc.Init(st))
		fresh := &SC{EpochTransfers: 4}
		wantActs := fresh.Init(st)
		if !slices.Equal(gotActs, wantActs) {
			t.Fatalf("m=%d: Init actions %v, fresh %v", m, gotActs, wantActs)
		}
		sameSC(t, "re-Init", sc, fresh)
	}
}

// refHeap is the container/heap implementation the typed timerHeap
// replaced.
type refHeap []timerEvent

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(timerEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestTimerHeapMatchesContainerHeap: random pushes and pops with many
// equal deadlines pop the same servers in the same order as
// container/heap, so ties resolve exactly as they always have.
func TestTimerHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var got timerHeap
		var want refHeap
		for step := 0; step < 300; step++ {
			if len(got) > 0 && rng.Intn(3) == 0 {
				g, w := got.pop(), heap.Pop(&want).(timerEvent)
				if g != w {
					t.Fatalf("trial %d step %d: popped %+v, container/heap %+v", trial, step, g, w)
				}
				continue
			}
			ev := timerEvent{at: float64(rng.Intn(6)), server: model.ServerID(step)}
			got.push(ev)
			heap.Push(&want, ev)
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(timerEvent); g != w {
				t.Fatalf("trial %d drain: popped %+v, container/heap %+v", trial, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: %d entries left", trial, len(got))
		}
	}
}
