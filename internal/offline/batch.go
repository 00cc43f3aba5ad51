package offline

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"datacache/internal/model"
)

// BatchItem is one instance of a batch optimization: a data item's request
// sequence under its own cost model. Items are independent under the
// homogeneous model, so a batch parallelizes perfectly.
type BatchItem struct {
	Name  string
	Seq   *model.Sequence
	Model model.CostModel
}

// BatchResult is the outcome for one item.
type BatchResult struct {
	Name string
	Cost float64
	Res  *Result
	Err  error
}

// OptimizeBatch runs FastDP over every item using a bounded worker pool
// (workers <= 0 selects GOMAXPROCS). Results are returned in input order;
// per-item failures are recorded in the item's Err without aborting the
// rest. This is the entry point a multi-item service planner uses to price
// a whole catalog (see internal/multi).
func OptimizeBatch(items []BatchItem, workers int) []BatchResult {
	return OptimizeBatchCtx(context.Background(), items, workers)
}

// OptimizeBatchCtx is OptimizeBatch with cancellation: items not yet
// started when ctx is done are returned with ctx's error; items already in
// flight complete normally.
func OptimizeBatchCtx(ctx context.Context, items []BatchItem, workers int) []BatchResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]BatchResult, len(items))
	if len(items) == 0 {
		return out
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				it := items[idx]
				out[idx].Name = it.Name
				if err := ctx.Err(); err != nil {
					out[idx].Err = fmt.Errorf("offline: batch item %q: %w", it.Name, err)
					continue
				}
				if it.Seq == nil {
					out[idx].Err = fmt.Errorf("offline: batch item %q has no sequence", it.Name)
					continue
				}
				res, err := FastDP(it.Seq, it.Model)
				if err != nil {
					out[idx].Err = fmt.Errorf("offline: batch item %q: %w", it.Name, err)
					continue
				}
				out[idx].Res = res
				out[idx].Cost = res.Cost()
			}
		}()
	}
	for i := range items {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}
