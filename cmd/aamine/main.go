// Command aamine runs the end-to-end access-area mining pipeline over a
// query log (CSV or JSONL from loggen, or any log in the same format) and
// prints a Table-1-style report: per cluster the cardinality, distinct
// users, area coverage, object coverage and the aggregated access area.
//
// Usage:
//
//	loggen -n 20000 -o log.csv && aamine -log log.csv
//	aamine -synthetic 20000        # generate and mine in one go
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/extract"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/schema"
	"repro/internal/skyserver"
	"repro/internal/sqlparser"
	"repro/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command and returns its exit status: 2 for a bad flag, an
// unknown -format, or no input; 1 for an unknown -mode (as in
// skyserved), a log that cannot be read or a report that cannot be
// written. Every flag value is checked before any log is read or mined.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aamine", flag.ContinueOnError)
	fs.SetOutput(stderr)
	logPath := fs.String("log", "", "query log file (csv or jsonl by extension)")
	synthetic := fs.Int("synthetic", 0, "generate a synthetic log of this size instead of reading one")
	seed := fs.Int64("seed", 42, "seed for synthetic generation and sampling")
	eps := fs.Float64("eps", 0.06, "DBSCAN eps")
	minPts := fs.Int("minpts", 8, "DBSCAN minPts (weighted by query multiplicity)")
	sample := fs.Int("sample", 0, "cap on distinct areas clustered (0 = all)")
	top := fs.Int("top", 30, "clusters to print")
	analyze := fs.Bool("analyze", false, "print session/bot/classification analysis of the log")
	trendWindow := fs.Int64("trend", 0, "also mine in time windows of this many seconds and print trend events")
	format := fs.String("format", "text", "output format: text, csv, or json")
	skyFormat := fs.Bool("skyformat", false, "treat -log as a SkyServer SqlLog CSV export (header-mapped columns)")
	mode := fs.String("mode", "endpoint", "d_pred mode: endpoint or literal")
	rows := fs.Int("rows", 2000, "synthetic database rows per table (for coverage)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "aamine:", err)
		return code
	}
	dmode, err := distance.ParseMode(*mode)
	if err != nil {
		return fail(1, err)
	}
	outFormat, err := report.ParseFormat(*format)
	if err != nil {
		return fail(2, err)
	}

	var recs []qlog.Record
	switch {
	case *synthetic > 0:
		entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: *synthetic, Seed: *seed})
		for _, e := range entries {
			recs = append(recs, qlog.Record{Seq: e.Seq, Time: e.Time, User: e.User, SQL: e.SQL})
		}
	case *logPath != "":
		f, err := os.Open(*logPath)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		switch {
		case *skyFormat:
			recs, err = qlog.ReadSkyServerCSV(f)
		case strings.HasSuffix(*logPath, ".jsonl"):
			recs, err = qlog.ReadJSONL(f)
		default:
			recs, err = qlog.ReadCSV(f)
		}
		if err != nil {
			return fail(1, err)
		}
	default:
		fmt.Fprintln(stderr, "aamine: need -log FILE or -synthetic N")
		return 2
	}

	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: *rows, Seed: 1})
	stats := schema.NewStats()
	skyserver.SeedStats(db, stats)

	miner := core.NewMiner(core.Config{
		Schema: skyserver.Schema(), Stats: stats,
		Eps: *eps, MinPts: *minPts, Mode: dmode,
		SampleSize: *sample, Seed: *seed,
	})
	res := miner.MineRecords(recs)
	res.AttachCoverage(db)

	if *analyze {
		printAnalysis(stdout, recs)
	}
	if *trendWindow > 0 {
		drift := traffic.NewDrift()
		for i, w := range miner.MineWindows(recs, *trendWindow) {
			fmt.Fprintf(stdout, "window %d [%d, %d): %d clusters\n", i, w.Start, w.End, len(w.Result.Clusters))
			for _, e := range drift.Observe("", int64(i), w.Result.Clusters) {
				fmt.Fprintf(stdout, "  %-8s %s cardinality %d (was %d)\n",
					e.Kind, e.Expr, e.Cardinality, e.PrevCardinality)
			}
		}
	}

	if err := report.Write(stdout, res, outFormat, report.Options{Top: *top, Coverage: true}); err != nil {
		return fail(1, err)
	}
	return 0
}

// printAnalysis reports the log-understanding extensions: sessions, bots,
// query intent, and the SDSS-Log-Viewer-style classifications. Bots are the
// verdicts of the traffic classifier skyserved -traffic runs, fed the log in
// file order.
func printAnalysis(w io.Writer, recs []qlog.Record) {
	sessions := qlog.Sessionize(recs, 1800)
	users := make(map[string]struct{})
	clf := traffic.NewClassifier(traffic.Config{})
	for _, r := range recs {
		users[r.User] = struct{}{}
		fp, _ := sqlparser.FingerprintOnly(r.SQL)
		clf.Observe(r.User, r.Time, fp, r.SQL)
	}
	bots := 0
	for _, cls := range clf.UserClasses() {
		if cls == traffic.Bot {
			bots++
		}
	}
	fmt.Fprintf(w, "analysis: %d users, %d sessions, %d bot-like users\n", len(users), len(sessions), bots)

	ex := extract.New(skyserver.Schema())
	intents := map[qlog.Intent]int{}
	var areas []*extract.AccessArea
	for _, r := range recs {
		sel, err := sqlparser.ParseSelect(r.SQL)
		if err != nil {
			continue
		}
		intents[qlog.ClassifyIntent(sel)]++
		if a, err := ex.Extract(sel); err == nil {
			areas = append(areas, a)
		}
	}
	counts := qlog.Classify(areas)
	fmt.Fprintf(w, "analysis: %d test vs %d final queries; sky areas:", intents[qlog.TestQuery], intents[qlog.FinalQuery])
	for _, k := range []qlog.SkyAreaKind{qlog.RectangularSkyArea, qlog.BandSkyArea, qlog.SinglePointSkyArea, qlog.OtherSkyArea} {
		fmt.Fprintf(w, " %s=%d", k, counts.Sky[k])
	}
	fmt.Fprintln(w)
}
