package extract

import "repro/internal/obs"

// Template-cache instruments. The per-TemplateCache atomics (Hits/Misses)
// stay the authoritative per-instance numbers the pipeline stats report;
// these Default-registry counters aggregate across every cache in the
// process so /metrics?format=prom and the bench snapshot see one total.
var (
	rebindStage = obs.NewStage("extract_rebind")

	templateHits = obs.NewCounter("skyaccess_extract_template_hits_total",
		"template-cache lookups answered from a cached shape")
	templateMisses = obs.NewCounter("skyaccess_extract_template_misses_total",
		"template-cache lookups that fell through to the slow path")
	templateStores = obs.NewCounter("skyaccess_extract_template_stores_total",
		"templates stored after a slow-path extraction")
	templateRebinds = obs.NewCounter("skyaccess_extract_template_rebinds_total",
		"cached templates re-instantiated with fresh literals")
	templateRebindFails = obs.NewCounter("skyaccess_extract_template_rebind_fails_total",
		"rebinds rejected by a per-record guard (record took the slow path)")

	memoHitsTotal = obs.NewCounter("skyaccess_extract_memo_hits_total",
		"exact-statement memo lookups that found the text's entry")
	memoMissesTotal = obs.NewCounter("skyaccess_extract_memo_misses_total",
		"exact-statement memo lookups that lexed a text not seen before")
)
