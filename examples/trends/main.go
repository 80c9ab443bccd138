// Trends: trace how user interests move over time — the "trending research
// directions" of the paper's abstract. The log is mined in fixed time
// windows; clusters are matched across windows by relation set and box, as
// the served /drift matches epochs, and appearance/growth/disappearance
// events reported.
package main

import (
	"fmt"

	skyaccess "repro"
)

func main() {
	// Three months of synthetic activity with a shifting focus:
	// month 0: photometric objid lookups dominate;
	// month 1: a supernova-like event pulls attention to a zooSpec region;
	// month 2: the objid campaign ends.
	var recs []skyaccess.Record
	add := func(tm int64, sql string) {
		recs = append(recs, skyaccess.Record{
			Seq: len(recs), Time: tm, User: fmt.Sprintf("u%04d", len(recs)%97), SQL: sql,
		})
	}
	const month = 30 * 24 * 3600
	for i := 0; i < 60; i++ {
		add(int64(i)*1000, fmt.Sprintf("SELECT z FROM Photoz WHERE objid = %d", 1237650000000000000+i%7))
	}
	for i := 0; i < 40; i++ {
		add(month+int64(i)*1000, fmt.Sprintf("SELECT z FROM Photoz WHERE objid = %d", 1237650000000000000+i%7))
		add(month+int64(i)*1000, "SELECT * FROM zooSpec WHERE ra BETWEEN 150 AND 152 AND dec BETWEEN 12 AND 13")
	}
	for i := 0; i < 50; i++ {
		add(2*month+int64(i)*1000, "SELECT * FROM zooSpec WHERE ra BETWEEN 150 AND 152 AND dec BETWEEN 12 AND 13")
	}

	miner := skyaccess.NewMiner(skyaccess.Config{Schema: skyaccess.SkyServerSchema(), MinPts: 5})
	windows := miner.MineWindows(recs, month)
	for i, w := range windows {
		fmt.Printf("window %d [%d, %d): %d clusters\n", i, w.Start, w.End, len(w.Result.Clusters))
	}
	for _, e := range skyaccess.Trends(windows) {
		fmt.Printf("  w%d %-8s %s cardinality %d (was %d)\n",
			e.Epoch, e.Kind, e.Expr, e.Cardinality, e.PrevCardinality)
	}
}
