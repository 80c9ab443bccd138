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
	"flag"
	"fmt"
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
)

func main() {
	logPath := flag.String("log", "", "query log file (csv or jsonl by extension)")
	synthetic := flag.Int("synthetic", 0, "generate a synthetic log of this size instead of reading one")
	seed := flag.Int64("seed", 42, "seed for synthetic generation and sampling")
	eps := flag.Float64("eps", 0.06, "DBSCAN eps")
	autoEps := flag.Bool("autoeps", false, "derive eps from the k-distance knee (overrides -eps)")
	minPts := flag.Int("minpts", 8, "DBSCAN minPts (weighted by query multiplicity)")
	sample := flag.Int("sample", 0, "cap on distinct areas clustered (0 = all)")
	top := flag.Int("top", 30, "clusters to print")
	analyze := flag.Bool("analyze", false, "print session/bot/classification analysis of the log")
	trendWindow := flag.Int64("trend", 0, "also mine in time windows of this many seconds and print trend events")
	format := flag.String("format", "text", "output format: text, csv, or json")
	skyFormat := flag.Bool("skyformat", false, "treat -log as a SkyServer SqlLog CSV export (header-mapped columns)")
	mode := flag.String("mode", "endpoint", "d_pred mode: endpoint or literal")
	alg := flag.String("alg", "dbscan", "clustering algorithm: dbscan or optics")
	rows := flag.Int("rows", 2000, "synthetic database rows per table (for coverage)")
	flag.Parse()
	dmode, err := distance.ParseMode(*mode)
	if err != nil {
		fatal(err)
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
			fatal(err)
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
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "aamine: need -log FILE or -synthetic N")
		os.Exit(2)
	}

	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: *rows, Seed: 1})
	stats := schema.NewStats()
	skyserver.SeedStats(db, stats)

	algorithm := core.AlgDBSCAN
	if *alg == "optics" {
		algorithm = core.AlgOPTICS
	}
	miner := core.NewMiner(core.Config{
		Schema: skyserver.Schema(), Stats: stats,
		Eps: *eps, MinPts: *minPts, Mode: dmode, AutoEps: *autoEps,
		Algorithm:  algorithm,
		SampleSize: *sample, Seed: *seed,
	})
	res := miner.MineRecords(recs)
	res.AttachCoverage(db)

	if *analyze {
		printAnalysis(recs)
	}
	if *trendWindow > 0 {
		windows := miner.MineWindows(recs, *trendWindow)
		fmt.Print(core.TrendReport(windows, core.Trends(windows)))
	}

	if *autoEps {
		fmt.Printf("auto-selected eps: %.4f\n", res.ChosenEps)
	}
	f, err := report.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}
	if err := report.Write(os.Stdout, res, f, report.Options{Top: *top, Coverage: true}); err != nil {
		fatal(err)
	}
}

// printAnalysis reports the log-understanding extensions: sessions, bots,
// query intent, and the SDSS-Log-Viewer-style classifications.
func printAnalysis(recs []qlog.Record) {
	sessions := qlog.Sessionize(recs, 1800)
	profiles := qlog.ProfileUsers(recs, 1800)
	bots := 0
	for _, p := range profiles {
		if p.Bot() {
			bots++
		}
	}
	fmt.Printf("analysis: %d users, %d sessions, %d bot-like users\n", len(profiles), len(sessions), bots)

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
	fmt.Printf("analysis: %d test vs %d final queries; sky areas:", intents[qlog.TestQuery], intents[qlog.FinalQuery])
	for _, k := range []qlog.SkyAreaKind{qlog.RectangularSkyArea, qlog.BandSkyArea, qlog.SinglePointSkyArea, qlog.OtherSkyArea} {
		fmt.Printf(" %s=%d", k, counts.Sky[k])
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aamine:", err)
	os.Exit(1)
}
