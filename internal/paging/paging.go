// Package paging implements the classic capacity-oriented caching problem —
// the left column of the paper's Table I — so the comparison between the two
// paradigms can be measured rather than merely asserted: Belady's off-line
// MIN algorithm [5] against the k-competitive LRU of Sleator and
// Tarjan [16], counting page faults on a fixed-size cache.
//
// The contrast with the cloud data caching problem is the point: there the
// off-line optimum needs the O(mn) dynamic program of Section IV and the
// online bound is a constant 3; here the off-line optimum is a greedy
// farthest-in-future eviction and the online bound grows with the cache
// size k.
package paging

import (
	"fmt"
)

// Page identifies a page (or data item) in a reference string.
type Page int

// Belady counts the faults of the optimal off-line policy on a cache of
// size k: evict the page whose next use lies farthest in the future.
func Belady(refs []Page, k int) (faults int, err error) {
	if k < 1 {
		return 0, fmt.Errorf("paging: cache size %d must be positive", k)
	}
	// nextUse[i] = index of the next reference to refs[i] after i, or
	// len(refs) when never used again.
	next := make([]int, len(refs))
	last := map[Page]int{}
	for i := len(refs) - 1; i >= 0; i-- {
		if j, ok := last[refs[i]]; ok {
			next[i] = j
		} else {
			next[i] = len(refs)
		}
		last[refs[i]] = i
	}
	inCache := map[Page]int{} // page -> its next use index
	for i, p := range refs {
		if _, ok := inCache[p]; ok {
			inCache[p] = next[i]
			continue
		}
		faults++
		if len(inCache) >= k {
			var victim Page
			farthest := -1
			for q, nu := range inCache {
				if nu > farthest || (nu == farthest && q < victim) {
					victim, farthest = q, nu
				}
			}
			delete(inCache, victim)
		}
		inCache[p] = next[i]
	}
	return faults, nil
}

// LRU counts the faults of least-recently-used eviction on a cache of
// size k.
func LRU(refs []Page, k int) (faults int, err error) {
	if k < 1 {
		return 0, fmt.Errorf("paging: cache size %d must be positive", k)
	}
	lastUse := map[Page]int{}
	for i, p := range refs {
		if _, ok := lastUse[p]; !ok {
			faults++
			if len(lastUse) >= k {
				var victim Page
				oldest := i + 1
				for q, lu := range lastUse {
					if lu < oldest || (lu == oldest && q < victim) {
						victim, oldest = q, lu
					}
				}
				delete(lastUse, victim)
			}
		}
		lastUse[p] = i
	}
	return faults, nil
}

// CyclicAdversary builds the classic nemesis of LRU: round-robin references
// over k+1 distinct pages, on which LRU faults every access while Belady
// faults roughly once per k accesses — exhibiting the Θ(k) competitive gap
// that Table I contrasts with the constant 3 of the cloud problem.
func CyclicAdversary(k, n int) []Page {
	refs := make([]Page, n)
	for i := range refs {
		refs[i] = Page(i % (k + 1))
	}
	return refs
}
