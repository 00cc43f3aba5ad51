package paging

import (
	"testing"
	"testing/quick"
)

func TestBeladyTextbookExample(t *testing.T) {
	// A classic trace: Belady with k=3 faults 7 times.
	refs := []Page{7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2}
	got, err := Belady(refs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("Belady faults = %d, want 7", got)
	}
}

func TestLRUTextbookExample(t *testing.T) {
	refs := []Page{7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2}
	got, err := LRU(refs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Errorf("LRU faults = %d, want 9", got)
	}
}

func TestInvalidCacheSizes(t *testing.T) {
	refs := []Page{1, 2}
	if _, err := Belady(refs, 0); err == nil {
		t.Error("Belady accepted k=0")
	}
	if _, err := LRU(refs, 0); err == nil {
		t.Error("LRU accepted k=0")
	}
	if _, err := LRU(refs, -1); err == nil {
		t.Error("LRU accepted k=-1")
	}
}

func TestEmptyAndTinyTraces(t *testing.T) {
	for _, f := range []func([]Page, int) (int, error){Belady, LRU} {
		if got, err := f(nil, 2); err != nil || got != 0 {
			t.Errorf("empty trace: (%d, %v)", got, err)
		}
		if got, err := f([]Page{5}, 2); err != nil || got != 1 {
			t.Errorf("single ref: (%d, %v), want 1 fault", got, err)
		}
		if got, err := f([]Page{5, 5, 5}, 1); err != nil || got != 1 {
			t.Errorf("repeated ref: (%d, %v), want 1 fault", got, err)
		}
	}
}

func TestBeladyNeverWorseThanOnlinePolicies(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		k := 1 + int(kRaw%8)
		refs := make([]Page, len(raw))
		for i, v := range raw {
			refs[i] = Page(v % 12)
		}
		opt, err := Belady(refs, k)
		if err != nil {
			return false
		}
		lru, err := LRU(refs, k)
		if err != nil {
			return false
		}
		distinct := map[Page]bool{}
		for _, p := range refs {
			distinct[p] = true
		}
		// Every first touch faults, so compulsory misses lower-bound all
		// policies; Belady lower-bounds LRU.
		return opt <= lru && opt >= len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclicAdversaryExhibitsKGap(t *testing.T) {
	k, n := 5, 600
	refs := CyclicAdversary(k, n)
	lru, err := LRU(refs, k)
	if err != nil {
		t.Fatal(err)
	}
	if lru != n {
		t.Errorf("LRU on the cyclic adversary faults %d of %d, want every access", lru, n)
	}
	opt, err := Belady(refs, k)
	if err != nil {
		t.Fatal(err)
	}
	// The competitive gap approaches k on this trace.
	r := float64(lru) / float64(opt)
	if r < float64(k)-1 {
		t.Errorf("LRU/Belady ratio = %v, want ≈k = %d", r, k)
	}
	if r > float64(k)+1 {
		t.Errorf("LRU/Belady ratio = %v implausibly above k = %d", r, k)
	}
}
