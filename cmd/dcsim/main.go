// Command dcsim replays a request trace through an online caching policy
// and reports its cost against the off-line optimum. The policy is a
// policy spec, the grammar every tool and route shares.
//
// Usage:
//
//	dcgen -workload zipf -n 5000 | dcsim -policy sc
//	dcsim -in trace.csv -policy ttl:window=0.5
//	dcsim -in trace.csv -policy sc:epoch=16
//	dcsim -in trace.csv -compare            # every policy side by side
//	dcsim -in trace.csv -trace              # dump the decision event stream
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/obs"
	"datacache/internal/offline"
	"datacache/internal/service"
	"datacache/internal/stats"
	"datacache/internal/trace"
)

func main() {
	var (
		in      = flag.String("in", "", "input trace file (default stdin)")
		format  = flag.String("format", "csv", "input format: csv|json")
		mu      = flag.Float64("mu", 1, "caching cost per unit time (μ)")
		lambda  = flag.Float64("lambda", 1, "transfer cost (λ)")
		policy  = flag.String("policy", "sc", "policy spec: sc[:window=X,epoch=N] | ttl:window=X | adaptive | migrate | replicate | hybrid[:horizon=K,order=k]")
		compare = flag.Bool("compare", false, "run every policy and print a comparison table")
		metrics = flag.Bool("metrics", false, "print the per-server breakdown of the policy's schedule")
		dump    = flag.Bool("trace", false, "dump the decision event stream (requests, hits, transfers, drops, timer fires, epoch resets, mispredicts)")
	)
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *version {
		fmt.Println("dcsim " + service.Version)
		return
	}

	seq, err := readTrace(*in, *format)
	if err != nil {
		fatal(err)
	}
	cm := model.CostModel{Mu: *mu, Lambda: *lambda}

	opt, err := offline.FastDP(seq, cm)
	if err != nil {
		fatal(err)
	}

	if *compare {
		table := &stats.Table{Header: []string{"policy", "cost", "transfers", "hits", "cost/OPT"}}
		table.Add("OPT (offline)", opt.Cost(), "-", "-", 1.0)
		for _, spec := range []string{
			"sc",
			fmt.Sprintf("ttl:window=%g", cm.Delta()/4),
			fmt.Sprintf("ttl:window=%g", cm.Delta()*4),
			"adaptive",
			"migrate",
			"replicate",
		} {
			res, err := serve(spec, seq, cm)
			if err != nil {
				fatal(err)
			}
			table.Add(res.Policy, res.Stats.Cost, res.Stats.Transfers, res.Stats.CacheHits,
				res.Stats.Cost/opt.Cost())
		}
		fmt.Print(table.String())
		return
	}

	res, err := serve(*policy, seq, cm)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("policy: %s over %d requests (m=%d, μ=%g, λ=%g)\n", res.Policy, seq.N(), seq.M, cm.Mu, cm.Lambda)
	fmt.Printf("cost: %.6g   transfers: %d   cache hits: %d\n", res.Stats.Cost, res.Stats.Transfers, res.Stats.CacheHits)
	fmt.Printf("offline optimum: %.6g   ratio: %.4f (SC bound: 3)\n", opt.Cost(), res.Stats.Cost/opt.Cost())
	if *metrics {
		table := &stats.Table{Header: []string{"server", "requests", "cache-served", "xfers in", "xfers out", "cached time", "utilization"}}
		for _, m := range model.Metrics(seq, res.Schedule) {
			table.Add(fmt.Sprintf("s%d", m.Server), m.Requests, m.CacheServed,
				m.TransfersIn, m.TransfersOut, m.CachedTime, m.Utilization)
		}
		fmt.Print(table.String())
	}
	if *dump {
		if err := dumpTrace(seq, cm, *policy); err != nil {
			fatal(err)
		}
	}
}

// serve runs the policy a spec names over the whole sequence.
func serve(spec string, seq *model.Sequence, cm model.CostModel) (*datacache.OnlineResult, error) {
	sp, err := datacache.ParsePolicySpec(spec)
	if err != nil {
		return nil, err
	}
	return datacache.Serve(sp, seq, cm)
}

// dumpTrace serves the sequence through a Session running the policy,
// with an unbounded ring as its observer, and prints the event stream —
// the exact schema /v1/session/{id}/trace serves for live traffic.
func dumpTrace(seq *model.Sequence, cm model.CostModel, policy string) error {
	ring := &obs.Ring{} // unbounded: offline dumps want the full stream
	sess, err := datacache.NewSession(seq.M, seq.Origin, cm, &datacache.SessionOptions{Policy: policy, Observer: ring})
	if err != nil {
		return err
	}
	for _, r := range seq.Requests {
		if _, err := sess.Serve(r.Server, r.Time); err != nil {
			return err
		}
	}
	if _, err := sess.Close(); err != nil {
		return err
	}
	fmt.Printf("decision trace (%d events):\n", ring.Len())
	fmt.Print(ring.String())
	return nil
}

func readTrace(path, format string) (*model.Sequence, error) {
	var r io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.ReadSequence(r, format)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcsim:", err)
	os.Exit(1)
}
