// Loganalysis: the log-understanding extensions around the core pipeline —
// per-user sessions and bot detection (Singh et al. [23], Section 3.2, by
// the traffic classifier the server runs),
// sky-area and scan/search/retrieve classification (SDSS Log Viewer [26]),
// the exploratory-vs-final query heuristic and the cluster density-contrast
// statistic the paper's Section 6.3 lists as future work.
package main

import (
	"fmt"
	"sort"

	skyaccess "repro"
	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/qlog"
	"repro/internal/skyserver"
	"repro/internal/sqlparser"
	"repro/internal/traffic"
)

func main() {
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 6000, Seed: 42})
	recs := make([]qlog.Record, len(entries))
	for i, e := range entries {
		recs[i] = qlog.Record{Seq: e.Seq, Time: e.Time, User: e.User, SQL: e.SQL}
	}

	// 1. Sessions, and bots: the traffic classifier sees the log in order,
	// one statement fingerprint at a time, as the server's admission does.
	type userStat struct {
		user              string
		queries, sessions int
	}
	byUser := map[string]*userStat{}
	sessions := qlog.Sessionize(recs, 1800)
	for _, s := range sessions {
		u, ok := byUser[s.User]
		if !ok {
			u = &userStat{user: s.User}
			byUser[s.User] = u
		}
		u.queries += len(s.Records)
		u.sessions++
	}
	clf := traffic.NewClassifier(traffic.Config{})
	for _, r := range recs {
		fp, _ := sqlparser.FingerprintOnly(r.SQL)
		clf.Observe(r.User, r.Time, fp, r.SQL)
	}
	classes := clf.UserClasses()
	users := make([]*userStat, 0, len(byUser))
	countries := map[string]struct{}{}
	bots := 0
	for _, u := range byUser {
		users = append(users, u)
		countries[skyserver.CountryOf(u.user)] = struct{}{}
		if classes[u.user] == traffic.Bot {
			bots++
		}
	}
	sort.Slice(users, func(i, j int) bool {
		if users[i].queries != users[j].queries {
			return users[i].queries > users[j].queries
		}
		return users[i].user < users[j].user
	})
	fmt.Printf("%d queries, %d users from %d countries, %d sessions, %d bot-like users\n",
		len(recs), len(users), len(countries), len(sessions), bots)
	fmt.Println("top users:")
	for _, u := range users[:min(5, len(users))] {
		fmt.Printf("  %-10s %5d queries %4d sessions  [%s]\n", u.user, u.queries, u.sessions, classes[u.user])
	}

	// 2. Intent (test vs final) and area classification.
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
	fmt.Printf("\nintent: %d test (exploratory) vs %d final queries\n",
		intents[qlog.TestQuery], intents[qlog.FinalQuery])

	counts := qlog.Classify(areas)
	fmt.Println("sky-area categories ([26]):")
	for _, k := range []qlog.SkyAreaKind{qlog.RectangularSkyArea, qlog.BandSkyArea, qlog.SinglePointSkyArea, qlog.OtherSkyArea} {
		fmt.Printf("  %-14s %d\n", k, counts.Sky[k])
	}
	fmt.Println("access categories:")
	for _, k := range []qlog.AccessKind{qlog.ScanQuery, qlog.SearchQuery, qlog.RetrieveQuery} {
		fmt.Printf("  %-14s %d\n", k, counts.Access[k])
	}

	// 3. Density contrast of the top clusters (§6.3 follow-up).
	stats := skyaccess.NewAccessStats()
	db := skyaccess.SkyServerDatabase(800, 1)
	skyaccess.SeedStatsFromDatabase(db, stats)
	miner := core.NewMiner(core.Config{Schema: skyserver.Schema(), Stats: stats})
	res := miner.MineRecords(recs)

	// Rebuild the full item list for the contrast baseline.
	var all []*aggregate.Item
	for _, a := range areas {
		all = append(all, &aggregate.Item{Area: a, Weight: 1, Users: map[string]struct{}{}})
	}
	fmt.Println("\ndensity contrast of the top clusters (density inside box vs. surrounding shell):")
	for i, c := range res.Clusters {
		if i >= 6 {
			break
		}
		contrast := aggregate.DensityContrast(c, all, 0.5)
		expr := c.Expr()
		if len(expr) > 70 {
			expr = expr[:70] + "…"
		}
		fmt.Printf("  #%d (%4d queries)  contrast %8.1fx  %s\n", c.ID, c.Cardinality, contrast, expr)
	}
}
