// Command dctop is a live terminal console for a running dcserved: it
// polls /metrics, /v1/alerts, /v1/metrics/history and one session's SLO
// and trace endpoints, and renders the windowed competitive ratio and
// decision-latency p99 as sparklines over real server-side history (so
// a fresh attach or a -once frame shows the past -history-window, not a
// series starting from scratch), the per-server copy/cost map, the
// alert list with recent transitions, and the most recent decision
// events, refreshing in place.
//
// Usage:
//
//	dctop -addr http://localhost:8080            # watch, auto-pick a session
//	dctop -addr http://localhost:8080 -session sn-3 -interval 500ms
//	dctop -addr http://localhost:8080 -once      # one plain frame, no ANSI
//
// Without -session, dctop picks the lexicographically first session that
// exports a dc_session_cost series. When any multi-item pool is live
// (a dc_pool_items series exists, or -pool names one), the frame adds a
// top-items panel: the pool's heaviest items by cumulative cost and by
// regret, next to the slow-traces panel. Sessions and pools running
// counterfactual shadow policies additionally get a policy-leaderboard
// panel ranking every policy by exact cumulative cost, live row marked,
// and hybrid-policy sessions a planner panel (gate state, plan depth,
// predictor confidence, predicted-hit ratio).
// All transport goes through the typed client package — dctop holds no
// HTTP plumbing of its own.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"datacache/client"
	"datacache/internal/service"
	"datacache/internal/stats"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "dcserved base URL")
		session  = flag.String("session", "", "session id to watch (default: first with a dc_session_cost series)")
		pool     = flag.String("pool", "", "pool id for the top-items panel (default: first with a dc_pool_items series)")
		interval = flag.Duration("interval", time.Second, "refresh interval")
		histWin  = flag.Duration("history-window", 2*time.Minute, "server-side history window behind the sparklines")
		once     = flag.Bool("once", false, "render a single frame without ANSI control sequences and exit")
		version  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dctop " + service.Version)
		return
	}

	cl := client.New(*addr, client.WithHTTPClient(&http.Client{Timeout: 5 * time.Second}))
	ctx := context.Background()
	if *once {
		frame, err := renderFrame(ctx, cl, *session, *pool, *histWin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dctop: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(frame)
		return
	}
	for {
		frame, err := renderFrame(ctx, cl, *session, *pool, *histWin)
		// Home the cursor, redraw, and clear whatever an earlier (taller)
		// frame left below — steadier than a full-screen wipe per tick.
		fmt.Print("\x1b[H\x1b[2J")
		if err != nil {
			fmt.Printf("dctop: %v (retrying every %v)\n", err, *interval)
		} else {
			fmt.Print(frame)
		}
		time.Sleep(*interval)
	}
}

// renderFrame assembles one full console frame.
func renderFrame(ctx context.Context, cl *client.Client, session, pool string, histWin time.Duration) (string, error) {
	samples, err := cl.Metrics(ctx)
	if err != nil {
		return "", err
	}
	_, serverVersion, _ := cl.Health(ctx) // cosmetic only

	if session == "" {
		session = pickSession(samples)
	}
	if pool == "" {
		pool = pickPool(samples)
	}

	// One windowed-history round-trip feeds every sparkline in the frame,
	// so a freshly attached (or -once) dctop shows real server-side
	// history instead of starting a client-side series from scratch.
	hist := fetchHistory(ctx, cl, session, pool, histWin)

	var b strings.Builder
	fmt.Fprintf(&b, "dctop — datacache live console    server %s    %s\n",
		serverVersion, time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "sessions open: %.0f    pools open: %.0f\n",
		samples["dc_sessions_open"], samples["dc_pools_open"])
	writeRecorderLine(&b, samples)

	alerts, err := cl.Alerts(ctx)
	if err != nil {
		return "", err
	}

	if session == "" {
		b.WriteString("\nno live session to watch (create one via POST /v1/session)\n")
		writeAlerts(&b, alerts, hist.Annotations)
		writeTopItems(&b, ctx, cl, pool, hist)
		return b.String(), nil
	}

	sess := cl.OpenSession(session)
	slo, err := sess.SLO(ctx)
	if err != nil {
		return "", fmt.Errorf("session %s: %w", session, err)
	}

	fmt.Fprintf(&b, "\nsession %s    policy %s    n=%d\n", slo.ID, slo.Policy, slo.SLO.N)
	fmt.Fprintf(&b, "ratio  windowed %.3f (window %d)    cumulative %.3f    ewma %.3f\n",
		slo.SLO.WindowedRatio, slo.SLO.Window, slo.SLO.CumulativeRatio, slo.SLO.EWMA)
	ratioHist := histValues(hist, client.SessionSeries("dc_session_windowed_ratio", session))
	if len(ratioHist) == 0 {
		// Servers without the history endpoint fall back to the SLO
		// reply's request-indexed series.
		ratioHist = slo.SLO.Series
	}
	if spark := stats.Sparkline(ratioHist); spark != "" {
		fmt.Fprintf(&b, "  %s\n", spark)
	}
	if p99 := histValues(hist, "dc_engine_decision_seconds_p99"); len(p99) > 0 {
		fmt.Fprintf(&b, "decision p99 %.3f ms  %s\n", p99[len(p99)-1]*1e3, stats.Sparkline(p99))
	}
	if shed := histValues(hist, client.SessionSeries("dc_session_batches_shed_total", session)); len(shed) > 0 {
		fmt.Fprintf(&b, "shed rate/s  %.3f     %s\n", shed[len(shed)-1], stats.Sparkline(shed))
	}

	b.WriteString("\nservers:\n  srv  copy  caching     transfer    xfers  total\n")
	for _, sc := range slo.Breakdown {
		if !sc.Live && sc.Caching == 0 && sc.Transfers == 0 {
			continue
		}
		copyMark := "."
		if sc.Live {
			copyMark = "*"
		}
		fmt.Fprintf(&b, "  %-4d %-5s %-11.4g %-11.4g %-6d %.4g\n",
			sc.Server, copyMark, sc.Caching, sc.Transfer, sc.Transfers, sc.Cost())
	}

	writePlannerPanel(&b, ctx, sess, hist)
	writeAlerts(&b, alerts, hist.Annotations)
	writeShadowLeaderboard(&b, ctx, sess)

	if tr, err := sess.Trace(ctx); err == nil && len(tr.Events) > 0 {
		b.WriteString("\nrecent events:\n")
		events := tr.Events
		if len(events) > 8 {
			events = events[len(events)-8:]
		}
		for _, ev := range events {
			kind, _ := json.Marshal(ev.Kind)
			line := fmt.Sprintf("  t=%-9.4g %-12s srv %d", ev.At, strings.Trim(string(kind), `"`), ev.Server)
			if ev.From != 0 {
				line += fmt.Sprintf(" <- %d", ev.From)
			}
			b.WriteString(line + "\n")
		}
	}

	// The session's worst retained traces, highest summed regret first —
	// the ids paste straight into GET /v1/traces/{id}.
	if traces, err := cl.Traces(ctx, client.TraceQuery{Session: session, Limit: 5}); err == nil && traces.Count > 0 {
		b.WriteString("\nslow traces (by regret):\n  trace id                          duration    regret   decision\n")
		for _, ts := range traces.Traces {
			dec := ts.Decision
			if dec == "" {
				dec = "-"
			}
			fmt.Fprintf(&b, "  %s  %8.3f ms  %+8.4f  %s\n",
				ts.TraceID, ts.Duration*1e3, ts.Regret, dec)
		}
	}

	writeTopItems(&b, ctx, cl, pool, hist)
	return b.String(), nil
}

// fetchHistory pulls one windowed-history reply covering every series
// the frame's sparklines read. Errors degrade to an empty reply — older
// servers without the endpoint still render (with client-side series).
func fetchHistory(ctx context.Context, cl *client.Client, session, pool string, win time.Duration) client.MetricsHistoryResponse {
	sel := []string{"dc_engine_decision_seconds_p99"}
	if session != "" {
		sel = append(sel,
			client.SessionSeries("dc_session_windowed_ratio", session),
			client.SessionSeries("dc_session_batches_shed_total", session),
			client.SessionSeries("dc_planner_mispredicts", session),
			client.SessionSeries("dc_planner_confidence", session),
		)
	}
	if pool != "" {
		sel = append(sel, client.PoolSeries("dc_pool_cost_over_optimum", pool))
	}
	hist, err := cl.History(ctx, client.HistoryQuery{Series: sel, Window: win, Agg: "avg"})
	if err != nil {
		return client.MetricsHistoryResponse{}
	}
	return hist
}

// histValues extracts one series' point values, oldest first.
func histValues(hist client.MetricsHistoryResponse, key string) []float64 {
	for _, sr := range hist.Series {
		if sr.Key != key {
			continue
		}
		vals := make([]float64, len(sr.Points))
		for i, p := range sr.Points {
			vals[i] = p.V
		}
		return vals
	}
	return nil
}

// writePlannerPanel renders the hybrid planner's standing — gate state,
// plan count and depth, predictor confidence, predicted-hit ratio and
// mispredicts, with confidence and mispredict-rate history when the
// server retains it. No-op on sessions whose live policy runs no planner.
func writePlannerPanel(b *strings.Builder, ctx context.Context, sess *client.Session, hist client.MetricsHistoryResponse) {
	st, err := sess.State(ctx)
	if err != nil || st.Planner == nil {
		return
	}
	p := st.Planner
	gate := "closed (SC fallback)"
	if p.GateOpen {
		gate = "open (planning)"
	}
	fmt.Fprintf(b, "\nplanner (hybrid horizon=%d order=%d):  gate %s\n", p.Horizon, p.Order, gate)
	fmt.Fprintf(b, "  plans %-6d depth %-4d confidence %.3f  predicted-hit %.3f  mispredicts %d\n",
		p.Plans, p.PlanDepth, p.Confidence, p.PredictedHitRatio, p.Mispredicts)
	if conf := histValues(hist, client.SessionSeries("dc_planner_confidence", sess.ID)); len(conf) > 0 {
		fmt.Fprintf(b, "  confidence %s", stats.Sparkline(conf))
		if mis := histValues(hist, client.SessionSeries("dc_planner_mispredicts", sess.ID)); len(mis) > 0 {
			fmt.Fprintf(b, "  mispredicts %s", stats.Sparkline(mis))
		}
		b.WriteString("\n")
	}
}

// writeShadowLeaderboard renders the session's counterfactual policy
// standings ranked cheapest-first, the live row marked. No-op when the
// session runs no shadow policies (the /shadow route 404s).
func writeShadowLeaderboard(b *strings.Builder, ctx context.Context, sess *client.Session) {
	sr, err := sess.Shadow(ctx)
	if err != nil || len(sr.Standings) == 0 {
		return
	}
	rows := make([]client.ShadowStanding, len(sr.Standings))
	copy(rows, sr.Standings)
	sort.SliceStable(rows, func(i, j int) bool {
		// Dead shadows sink to the bottom; the rest rank by exact cost.
		if (rows[i].Err == "") != (rows[j].Err == "") {
			return rows[i].Err == ""
		}
		return rows[i].Cost < rows[j].Cost
	})
	b.WriteString("\npolicy leaderboard (counterfactual):\n")
	b.WriteString("  policy                     cost     /opt  windowed  diverged\n")
	for _, row := range rows {
		name := row.Policy
		if row.Live {
			name += " (live)"
		}
		if row.Err != "" {
			fmt.Fprintf(b, "  %-22s dead: %s\n", name, row.Err)
			continue
		}
		fmt.Fprintf(b, "  %-22s %9.4g %8.3f %9.4g %9d\n",
			name, row.Cost, row.CostOverOptimum, row.WindowedCost, row.Divergence)
	}
}

// writeTopItems renders the pool's heaviest items — by cumulative cost
// and by regret — alongside its tenant rollups. No-op when no pool is
// live or the pool vanished between the scrape and the read.
func writeTopItems(b *strings.Builder, ctx context.Context, cl *client.Client, pool string, hist client.MetricsHistoryResponse) {
	if pool == "" {
		return
	}
	h := cl.OpenPool(pool)
	state, err := h.State(ctx)
	if err != nil {
		return
	}
	fmt.Fprintf(b, "\npool %s    items %d (live %d)    evictions %d    ratio %.3f\n",
		pool, state.Items, state.LiveItems, state.Evictions, state.Ratio)
	if ro := histValues(hist, client.PoolSeries("dc_pool_cost_over_optimum", pool)); len(ro) > 0 {
		fmt.Fprintf(b, "  /opt %s\n", stats.Sparkline(ro))
	}
	if sr, err := h.Shadow(ctx); err == nil && len(sr.Standings) > 0 {
		b.WriteString("pool policy leaderboard (counterfactual):\n")
		for _, row := range sr.Standings {
			name := row.Policy
			if row.Live {
				name += " (live)"
			}
			mark := " "
			if row.Best {
				mark = "*"
			}
			fmt.Fprintf(b, "%s %-22s cost %-12.4g /opt %-8.3f diverged %d\n",
				mark, name, row.Cost, row.CostOverOptimum, row.Divergence)
		}
	}
	for _, by := range []string{"cost", "regret"} {
		top, err := h.TopItems(ctx, by, 5)
		if err != nil || len(top.Items) == 0 {
			continue
		}
		fmt.Fprintf(b, "top items by %s:\n  key                        n      %-10s ratio\n", by, by)
		for _, it := range top.Items {
			key := it.Item
			if it.Tenant != "" {
				key = it.Tenant + "/" + it.Item
			}
			metric := it.Cost
			if by == "regret" {
				metric = it.Regret
			}
			live := " "
			if it.Live {
				live = "*"
			}
			fmt.Fprintf(b, "  %-25s%s %-6d %-10.4g %.3f\n", key, live, it.N, metric, it.Ratio)
		}
	}
	if len(state.Tenants) > 1 {
		b.WriteString("tenants:\n")
		for _, ts := range state.Tenants {
			name := ts.Tenant
			if name == "" {
				name = "(default)"
			}
			fmt.Fprintf(b, "  %-12s n=%-7d ratio %.3f  windowed %.3f\n",
				name, ts.N, ts.Ratio, ts.WindowedRatio)
		}
	}
}

// writeRecorderLine prints the flight-recorder standing when the server
// publishes dc_recorder_* series (dcserved -record-dir); silent otherwise.
func writeRecorderLine(b *strings.Builder, samples map[string]float64) {
	recOf := func(name string) (float64, string, bool) {
		for series, v := range samples {
			if strings.HasPrefix(series, name+"{") {
				mode := ""
				if i := strings.Index(series, `mode="`); i >= 0 {
					rest := series[i+len(`mode="`):]
					if j := strings.IndexByte(rest, '"'); j >= 0 {
						mode = rest[:j]
					}
				}
				return v, mode, true
			}
		}
		return 0, "", false
	}
	records, mode, ok := recOf("dc_recorder_records")
	if !ok {
		return
	}
	bytes, _, _ := recOf("dc_recorder_bytes")
	files, _, _ := recOf("dc_recorder_files")
	dropped, _, _ := recOf("dc_recorder_dropped")
	fmt.Fprintf(b, "recorder %s: %.0f records  %.1f MiB  %.0f file(s)  dropped %.0f\n",
		mode, records, bytes/(1<<20), files, dropped)
}

func writeAlerts(b *strings.Builder, alerts client.AlertsResponse, anns []client.HistoryAnnotation) {
	b.WriteString("\nalerts:")
	if len(alerts.Alerts) == 0 {
		b.WriteString(" none\n")
	} else {
		fmt.Fprintf(b, " %d firing\n", alerts.Firing)
		for _, a := range alerts.Alerts {
			state, _ := json.Marshal(a.Alert.State)
			fmt.Fprintf(b, "  %-9s %s %s  value %.3f  threshold %g  since t=%.4g\n",
				strings.Trim(string(state), `"`), a.Session, a.Alert.Rule.Name,
				a.Alert.Value, a.Alert.Rule.Threshold, a.Alert.Since)
		}
	}
	if len(anns) == 0 {
		return
	}
	// The timeline's most recent transitions (SLO rules and metric
	// anomalies alike); a trace id names the guilty exemplar.
	if len(anns) > 5 {
		anns = anns[len(anns)-5:]
	}
	b.WriteString("recent transitions:\n")
	for _, a := range anns {
		line := fmt.Sprintf("  %s %s %s -> %s  value %.3f",
			time.Unix(0, int64(a.At*1e9)).Format("15:04:05"), a.Rule, a.From, a.To, a.Value)
		if a.TraceID != "" {
			line += "  trace " + a.TraceID
		}
		b.WriteString(line + "\n")
	}
}

// pickSession returns the lexicographically first session label found on
// a dc_session_cost series, or "".
func pickSession(samples map[string]float64) string {
	var ids []string
	for series := range samples {
		if !strings.HasPrefix(series, `dc_session_cost{`) {
			continue
		}
		rest := strings.TrimPrefix(series, `dc_session_cost{session="`)
		if end := strings.Index(rest, `"`); end >= 0 {
			ids = append(ids, rest[:end])
		}
	}
	sort.Strings(ids)
	if len(ids) == 0 {
		return ""
	}
	return ids[0]
}

// pickPool returns the lexicographically first pool label found on a
// dc_pool_items series, or "".
func pickPool(samples map[string]float64) string {
	var ids []string
	for series := range samples {
		if !strings.HasPrefix(series, `dc_pool_items{`) {
			continue
		}
		rest := strings.TrimPrefix(series, `dc_pool_items{pool="`)
		if end := strings.Index(rest, `"`); end >= 0 {
			ids = append(ids, rest[:end])
		}
	}
	sort.Strings(ids)
	if len(ids) == 0 {
		return ""
	}
	return ids[0]
}
