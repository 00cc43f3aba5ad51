// Command perfbench is the repository's benchmark: it drives the dcserved
// binary built from the tree under test through one of three traffic
// shapes, checks every answer against in-process references, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// separate traced run) as one JSON object on its last output line.
//
// Run it through run.sh, which builds dcserved and this program first:
//
//	bash perfbench/run.sh --workload session-long --seed 1 --seconds 20 --trace 0
//
// README.md documents the workloads, the metrics and what each should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dcserved string // the built server binary
	workdir  string // directory for run files inside the checkout
	setups   int    // set-ups per run; setup_s is their median
	sizes    sizes
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", wlSessionLong, "workload: session-long|pool-churn|session-observed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.dcserved, "dcserved", "", "path of the built dcserved binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for run files (recordings, spans)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.sizes = fullSizes
	cfg.setups = 5
	if cfg.dcserved == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -dcserved is required (run through run.sh)")
		os.Exit(2)
	}
	pinClient()
	// The generated inputs and samples are long-lived; collect less often
	// so the client's garbage collector interrupts the loop less.
	debug.SetGCPercent(400)

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run generates the inputs and their references, then performs the
// end-to-end or the traced run in a fresh directory under the workdir.
func run(cfg config) (*result, error) {
	s, err := generate(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, err
	}
	exp, err := expectations(s)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.trace {
		return tracedRun(cfg, s, exp, dir)
	}
	res, _, err := endToEnd(cfg, s, exp, dir)
	return res, err
}

// serverArgs are the flags a workload adds to dcserved's defaults.
func serverArgs(s *spec, dir string, i int) []string {
	if !s.recorder {
		return nil
	}
	return []string{"-record-dir", filepath.Join(dir, "rec-"+strconv.Itoa(i))}
}

// setUp starts one server and brings it to the start of the timed phase:
// ready, its sessions or pools created, its warm-up traffic served. It
// returns the elapsed time from exec to the end of the warm-up.
func setUp(cfg config, s *spec, exp []expected, dir string, i int, t *tally) (*server, *caller, *open, float64, error) {
	hc := newHTTPClient()
	start := time.Now()
	srv, err := startServer(cfg.dcserved, serverArgs(s, dir, i))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	fail := func(err error) (*server, *caller, *open, float64, error) {
		srv.stop()
		return nil, nil, nil, 0, err
	}
	if err := srv.waitReady(hc, 30*time.Second); err != nil {
		return fail(err)
	}
	d := newCaller(srv, hc, t, s.scrapeEvery)
	var resume *open
	if s.setupSplit {
		u := s.units[0]
		id, err := d.create(u, 0)
		if err != nil {
			return fail(err)
		}
		hits, transfers, err := d.batches(u, id, 0)
		if err != nil {
			return fail(err)
		}
		resume = &open{id: id, hits: hits, transfers: transfers}
	} else if _, err := d.runPass(s, exp, nil); err != nil {
		return fail(err)
	}
	return srv, d, resume, time.Since(start).Seconds(), nil
}

// timedPhase runs whole passes until the run's seconds have elapsed (at
// least one) and returns the standings of the first pass.
func timedPhase(cfg config, s *spec, exp []expected, d *caller, resume *open) ([]outcome, error) {
	d.timing, d.pass = true, 0
	var first []outcome
	start := time.Now()
	for d.pass == 0 || time.Since(start).Seconds() < cfg.seconds {
		from := len(d.lat)
		outs, err := d.runPass(s, exp, resume)
		if err != nil {
			return first, err
		}
		resume = nil
		if first == nil {
			first = outs
		}
		d.passP50 = append(d.passP50, medianInt(d.lat[from:])/1e3)
	}
	d.timing = false
	return first, nil
}

// endToEnd is the untraced run: cfg.setups set-ups, then the timed phase
// on the last one. It also returns the first timed pass's standings.
func endToEnd(cfg config, s *spec, exp []expected, dir string) (*result, []outcome, error) {
	t := &tally{}
	res := &result{Metrics: map[string]metric{}}
	var setups []float64
	var srv *server
	var d *caller
	var resume *open
	for i := 0; i < cfg.setups; i++ {
		var el float64
		var err error
		srv, d, resume, el, err = setUp(cfg, s, exp, dir, i, t)
		if err != nil {
			return failed(res, t, err), nil, nil
		}
		setups = append(setups, el)
		if i < cfg.setups-1 {
			srv.stop()
		}
	}
	defer srv.stop()

	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	first, err := timedPhase(cfg, s, exp, d, resume)
	if err != nil {
		return failed(res, t, err), nil, nil
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	res.Correct = t.failed == 0
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["serve_p50_ms"] = metric{medianInt(d.lat) / 1e6, "ms"}
	res.Metrics["server_cpu_us_per_req"] = metric{(cpu1 - cpu0) * 1e6 / float64(d.decisions), "us"}
	res.Metrics["server_rss_mb"] = metric{rss, "MiB"}
	res.Metrics["cost_over_opt"] = metric{costOverOpt(first), "ratio"}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, p50 from %d serve calls, %d decisions, set-ups %.4f s, pass p50s %.1f us\n",
		s.name, s.seed, d.pass, len(d.lat), d.decisions, setups, d.passP50)
	return res, first, nil
}

// failed reports a run that stopped on a failed call or check.
func failed(res *result, t *tally, err error) *result {
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	res.Correct = false
	res.Attempted, res.Failed = max(t.attempted, 1), max(t.failed, 1)
	return res
}

// costOverOpt is total policy cost over total optimum across one pass's
// units, summed in unit order.
func costOverOpt(outs []outcome) float64 {
	var c, o float64
	for _, out := range outs {
		c += out.Cost
		o += out.Optimal
	}
	if o == 0 {
		return 1
	}
	return c / o
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianInt(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}
