package multi

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"datacache/internal/model"
	"datacache/internal/offline"
	"datacache/internal/online"
	"datacache/internal/workload"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

// mergedStream interleaves several generated per-item sequences into one
// time-ordered tagged event stream.
func mergedStream(rng *rand.Rand, c *Catalog, names []string, nPerItem int) []Event {
	var events []Event
	for k, name := range names {
		seq := workload.MarkovHop{M: c.M, Stay: 0.7, MeanGap: 0.5}.Generate(rng, nPerItem)
		for _, r := range seq.Requests {
			// Deterministic per-item jitter keeps per-item times distinct
			// after merging.
			events = append(events, Event{Item: name, Server: r.Server, Time: r.Time + float64(k)*1e-7})
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].Time < events[b].Time })
	return events
}

func testCatalog() *Catalog {
	return &Catalog{
		M:       5,
		Default: model.Unit,
		Items: map[string]ItemSpec{
			"hot":  {Model: model.CostModel{Mu: 1, Lambda: 4}, Origin: 2},
			"cold": {Model: model.CostModel{Mu: 3, Lambda: 1}},
		},
	}
}

func TestDemultiplexSplitsAndValidates(t *testing.T) {
	c := testCatalog()
	events := []Event{
		{Item: "hot", Server: 1, Time: 1},
		{Item: "cold", Server: 2, Time: 1}, // same instant, different item: fine
		{Item: "hot", Server: 3, Time: 2},
	}
	perItem, names, err := Demultiplex(c, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "cold" || names[1] != "hot" {
		t.Fatalf("names = %v", names)
	}
	if perItem["hot"].N() != 2 || perItem["cold"].N() != 1 {
		t.Fatalf("split sizes wrong: %d/%d", perItem["hot"].N(), perItem["cold"].N())
	}
	if perItem["hot"].Origin != 2 {
		t.Errorf("hot origin = %d, want the spec'd 2", perItem["hot"].Origin)
	}
	if perItem["cold"].Origin != 1 {
		t.Errorf("cold origin = %d, want default 1", perItem["cold"].Origin)
	}
}

func TestDemultiplexErrors(t *testing.T) {
	c := testCatalog()
	if _, _, err := Demultiplex(&Catalog{M: 0}, nil); err == nil {
		t.Error("invalid catalog accepted")
	}
	if _, _, err := Demultiplex(c, []Event{
		{Item: "a", Server: 1, Time: 2},
		{Item: "b", Server: 1, Time: 1},
	}); err == nil {
		t.Error("out-of-order stream accepted")
	}
	if _, _, err := Demultiplex(c, []Event{
		{Item: "a", Server: 1, Time: 2},
		{Item: "a", Server: 2, Time: 2},
	}); err == nil {
		t.Error("coinciding same-item times accepted")
	}
	if _, _, err := Demultiplex(c, []Event{{Item: "a", Server: 99, Time: 1}}); err == nil {
		t.Error("out-of-range server accepted")
	}
}

func TestPlanMatchesPerItemOptimization(t *testing.T) {
	c := testCatalog()
	rng := rand.New(rand.NewSource(89))
	events := mergedStream(rng, c, []string{"hot", "cold", "misc"}, 40)
	reports, total, err := Plan(c, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	perItem, _, err := Demultiplex(c, events)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, rep := range reports {
		want, err := offline.FastDP(perItem[rep.Item], c.spec(rep.Item).Model)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(rep.Cost, want.Cost()) {
			t.Errorf("item %q: plan %v != direct %v", rep.Item, rep.Cost, want.Cost())
		}
		if err := rep.Schedule.Validate(perItem[rep.Item]); err != nil {
			t.Errorf("item %q: %v", rep.Item, err)
		}
		sum += rep.Cost
	}
	if !approxEq(total, sum) {
		t.Errorf("total %v != sum %v", total, sum)
	}
}

func TestServePerItemIsolationAndGuarantee(t *testing.T) {
	c := testCatalog()
	rng := rand.New(rand.NewSource(97))
	events := mergedStream(rng, c, []string{"hot", "cold", "misc", "x"}, 30)
	_, planTotal, err := Plan(c, events, 0)
	if err != nil {
		t.Fatal(err)
	}
	reports, serveTotal, err := Serve(c, events, func() online.Runner {
		return online.SpeculativeCaching{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	if serveTotal < planTotal {
		t.Errorf("online total %v below offline optimum %v", serveTotal, planTotal)
	}
	if !CompetitiveGuarantee(planTotal, serveTotal, 3) {
		t.Errorf("catalog bill %v breaks the composed 3x bound of optimum %v", serveTotal, planTotal)
	}
	if CompetitiveGuarantee(planTotal, serveTotal, serveTotal/planTotal-0.01) {
		t.Error("CompetitiveGuarantee accepted a bound below the actual ratio")
	}
}

func TestPlanPropagatesItemFailure(t *testing.T) {
	c := testCatalog()
	// Bad cost model for one item.
	c.Items["broken"] = ItemSpec{Model: model.CostModel{Mu: -1, Lambda: 1}}
	events := []Event{
		{Item: "broken", Server: 1, Time: 1},
		{Item: "hot", Server: 1, Time: 2},
	}
	if _, _, err := Plan(c, events, 2); err == nil {
		t.Error("broken item's failure not propagated")
	}
	if _, _, err := Serve(c, events, func() online.Runner { return online.SpeculativeCaching{} }); err == nil {
		t.Error("broken item's failure not propagated by Serve")
	}
}

func TestEmptyStream(t *testing.T) {
	c := testCatalog()
	reports, total, err := Plan(c, nil, 2)
	if err != nil || total != 0 || len(reports) != 0 {
		t.Errorf("empty plan = (%v, %v, %v)", reports, total, err)
	}
}
