// Command dcreplay verifies and scores a flight recording produced by
// the recording serving stack (dcserved -record-dir, or the library's
// recorder.Writer):
//
//   - fidelity: every recorded stream replays through a fresh engine and
//     the re-computed cumulative cost and prefix optimum must match the
//     recording bit-for-bit. Any divergence is real — version skew, file
//     corruption, or a bug — and exits nonzero.
//   - hindsight: the exact offline DP runs over every (session, tenant,
//     item) key's full request stream, reporting the true
//     ratio-to-optimum per key, per tenant, per session and over a
//     rolling window — the number the online/offline comparison of the
//     paper is about, measured on production traffic.
//   - counterfactual: -shadows runs alternative policies over the same
//     traffic and reports the panel.
//   - export: -export-trace writes each key's reconstructed workload
//     sequence through the canonical trace serializer, ready to feed
//     back into dcsim/dcopt.
//
// Usage:
//
//	dcreplay -in /var/lib/dcserved/records
//	dcreplay -in rec.wal -json
//	dcreplay -in records/ -shadows migrate,replicate -max-ratio 3
//	dcreplay -in records/ -export-trace traces/ -trace-format csv
//
// Exit status: 0 on success, 1 on operational errors, 2 when bitwise
// verification fails, 3 when -max-ratio is set and any session, tenant
// or the total exceeds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"datacache"
	"datacache/internal/recorder"
	"datacache/internal/service"
	"datacache/internal/trace"
)

func main() {
	var (
		in       = flag.String("in", "", "recording file or directory of rotated files (required)")
		window   = flag.Int("window", 0, "rolling hindsight-ratio window in requests (0 uses the library default)")
		shadows  = flag.String("shadows", "", "comma-separated shadow policy specs to run over the replayed traffic (e.g. sc,ttl:window=2,migrate)")
		maxRatio = flag.Float64("max-ratio", 0, "fail (exit 3) when any session, tenant or total hindsight ratio exceeds this (0 disables)")
		jsonOut  = flag.Bool("json", false, "emit the full report as JSON")
		expDir   = flag.String("export-trace", "", "write each key's reconstructed workload sequence to this directory (dcsim/dcopt input)")
		expFmt   = flag.String("trace-format", trace.FormatCSV, "trace export format: csv or json")
		version  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dcreplay " + service.Version)
		return
	}
	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	opts := &datacache.ReplayOptions{Window: *window, Shadows: datacache.SplitPolicySpecs(*shadows)}
	rep, err := datacache.ReplayPath(*in, opts)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		printReport(rep)
	}
	if *expDir != "" {
		n, err := exportTraces(*in, *expDir, *expFmt)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dcreplay: exported %d workload trace(s) to %s\n", n, *expDir)
	}
	if !rep.BitwiseOK {
		fmt.Fprintln(os.Stderr, "dcreplay: FAIL: replay diverged from the recording")
		os.Exit(2)
	}
	if *maxRatio > 0 {
		if breach := ratioBreaches(rep, *maxRatio); breach != "" {
			fmt.Fprintf(os.Stderr, "dcreplay: FAIL: %s\n", breach)
			os.Exit(3)
		}
	}
}

// ratioBreaches returns a description of the first hindsight ratio above
// the bound, or "" when all hold.
func ratioBreaches(rep *datacache.ReplayReport, bound float64) string {
	if rep.Ratio > bound {
		return fmt.Sprintf("total hindsight ratio %.4f exceeds %.4f", rep.Ratio, bound)
	}
	for _, s := range rep.Sessions {
		if s.Ratio > bound {
			return fmt.Sprintf("session %s hindsight ratio %.4f exceeds %.4f", s.Session, s.Ratio, bound)
		}
	}
	for _, t := range rep.Tenants {
		if t.Ratio > bound {
			return fmt.Sprintf("tenant %q hindsight ratio %.4f exceeds %.4f", t.Tenant, t.Ratio, bound)
		}
	}
	return ""
}

func printReport(rep *datacache.ReplayReport) {
	verdict := "OK (bit-for-bit)"
	if !rep.BitwiseOK {
		verdict = "DIVERGED"
	}
	fmt.Printf("replayed %d records, %d streams, %d files — fidelity %s\n",
		rep.Records, len(rep.Streams), rep.Files, verdict)
	if rep.Truncated {
		fmt.Println("note: torn tail recovered — the recording ends mid-record (crash?); the durable prefix was replayed")
	}
	if rep.Partial > 0 {
		fmt.Printf("note: %d partial stream(s) counted but not verified (prefix files missing)\n", rep.Partial)
	}
	for _, s := range rep.Streams {
		if !s.Bitwise && !s.Partial {
			fmt.Printf("  stream %d (%s", s.Stream, s.Session)
			if s.Tenant != "" || s.Item != "" {
				fmt.Printf(" %s/%s", s.Tenant, s.Item)
			}
			fmt.Printf("): %d mismatch(es); first: %s\n", s.Mismatches, s.FirstDiff)
		}
	}
	fmt.Printf("hindsight: live %.6g vs clairvoyant optimum %.6g — ratio %.4f\n",
		rep.LiveCost, rep.HindsightOpt, rep.Ratio)
	fmt.Printf("rolling window (%d requests): final ratio %.4f, peak %.4f\n",
		rep.Window, rep.WindowRatio, rep.PeakWindowRatio)
	if len(rep.Sessions) > 1 {
		fmt.Println("per session:")
		for _, s := range rep.Sessions {
			fmt.Printf("  %-10s keys %-4d n %-6d live %-12.6g opt %-12.6g ratio %.4f\n",
				s.Session, s.Keys, s.N, s.LiveCost, s.HindsightOpt, s.Ratio)
		}
	}
	if len(rep.Tenants) > 1 || (len(rep.Tenants) == 1 && rep.Tenants[0].Tenant != "") {
		fmt.Println("per tenant:")
		for _, t := range rep.Tenants {
			name := t.Tenant
			if name == "" {
				name = "(none)"
			}
			fmt.Printf("  %-10s keys %-4d n %-6d live %-12.6g opt %-12.6g ratio %.4f\n",
				name, t.Keys, t.N, t.LiveCost, t.HindsightOpt, t.Ratio)
		}
	}
	if rep.ShadowPanel != nil {
		fmt.Println("counterfactual panel (cost over hindsight optimum):")
		for _, st := range rep.ShadowPanel.Standings {
			marker := " "
			if st.Best {
				marker = "*"
			}
			tag := ""
			if st.Live {
				tag = " (live)"
			}
			fmt.Printf("  %s %-18s cost %-12.6g x%-8.4f hits %-6d transfers %-6d drops %d%s\n",
				marker, st.Policy, st.Cost, st.CostOverOptimum, st.Hits, st.Transfers, st.Drops, tag)
		}
	}
}

// exportTraces reconstructs each key's workload from the recording and
// writes it through the canonical sequence serializer — the same
// helper dcgen writes with and dcsim/dcopt read with — so recorded
// production traffic feeds straight back into the off-line tooling.
func exportTraces(in, dir, format string) (int, error) {
	if !trace.ValidFormat(format) {
		return 0, fmt.Errorf("unknown trace format %q (want one of %s)", format, strings.Join(trace.Formats(), ", "))
	}
	recs, err := recorder.ReadPath(in)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	ext := format
	if ext == "" {
		ext = trace.FormatCSV
	}
	n := 0
	for _, tr := range datacache.RecordedTraces(recs) {
		if len(tr.Seq.Requests) == 0 {
			continue
		}
		name := tr.Session
		if tr.Tenant != "" {
			name += "_" + tr.Tenant
		}
		if tr.Item != "" {
			name += "_" + tr.Item
		}
		f, err := os.Create(filepath.Join(dir, sanitizeName(name)+"."+strings.ToLower(ext)))
		if err != nil {
			return n, err
		}
		if err := trace.WriteSequence(f, format, tr.Seq); err != nil {
			f.Close()
			return n, err
		}
		if err := f.Close(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// sanitizeName maps a session/tenant/item key to a safe file stem.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcreplay:", err)
	os.Exit(1)
}
