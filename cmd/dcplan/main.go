// Command dcplan prices a whole catalog of data items from an item-tagged
// event trace: the off-line optimum per item (in parallel), optionally the
// online bill under a per-item policy, and the catalog totals.
//
// Usage:
//
//	dcplan -in events.csv -mu 1 -lambda 2
//	dcplan -in events.csv -online sc
//	dcplan -in events.csv -online ttl:window=0.5
//
// The events format is one "item,server,time" row per request under a
// "#datacache-events m=<m>" header; see internal/trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/multi"
	"datacache/internal/online"
	"datacache/internal/service"
	"datacache/internal/stats"
	"datacache/internal/trace"
)

func main() {
	var (
		in       = flag.String("in", "", "input events file (default stdin)")
		mu       = flag.Float64("mu", 1, "caching cost per unit time (μ)")
		lambda   = flag.Float64("lambda", 1, "transfer cost (λ)")
		onlineBy = flag.String("online", "", "also serve each item online under this policy spec: sc[:window=X,epoch=N] | ttl:window=X | adaptive | migrate | replicate | hybrid[:horizon=K,order=k]")
		workers  = flag.Int("workers", 0, "parallel planners (0 = GOMAXPROCS)")
	)
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *version {
		fmt.Println("dcplan " + service.Version)
		return
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	m, events, err := trace.ReadEventsCSV(r)
	if err != nil {
		fatal(err)
	}
	cat := &multi.Catalog{M: m, Default: model.CostModel{Mu: *mu, Lambda: *lambda}}

	reports, total, err := multi.Plan(cat, events, *workers)
	if err != nil {
		fatal(err)
	}
	table := &stats.Table{Header: []string{"item", "requests", "planned bill"}}
	var serveReports []multi.ServeReport
	var serveTotal float64
	if *onlineBy != "" {
		table.Header = append(table.Header, "online bill", "online/planned")
		sp, err := datacache.ParsePolicySpec(*onlineBy)
		if err != nil {
			fatal(err)
		}
		serveReports, serveTotal, err = multi.Serve(cat, events, func() online.Runner { return sp })
		if err != nil {
			fatal(err)
		}
	}
	for i, rep := range reports {
		row := []interface{}{rep.Item, rep.Requests, rep.Cost}
		if serveReports != nil {
			row = append(row, serveReports[i].Stats.Cost, serveReports[i].Stats.Cost/rep.Cost)
		}
		table.Add(row...)
	}
	totalRow := []interface{}{"TOTAL", len(events), total}
	if serveReports != nil {
		totalRow = append(totalRow, serveTotal, serveTotal/total)
	}
	table.Add(totalRow...)
	fmt.Print(table.String())
	if serveReports != nil {
		fmt.Printf("composed guarantee serve <= 3*plan holds: %v\n",
			multi.CompetitiveGuarantee(total, serveTotal, 3))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcplan:", err)
	os.Exit(1)
}
