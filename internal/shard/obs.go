package shard

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// initRegistry builds the coordinator's private metrics registry: its
// admission, routing and merge counters and each shard's delivery state,
// function-backed over the atomics the coordinator keeps anyway. It is the
// one source of the coordinator's /metrics, the JSON view and the Prometheus
// view alike (see serve.MetricKey). Called once from NewCoordinator.
func (c *Coordinator) initRegistry() {
	r := obs.NewRegistry()
	c.reg = r

	r.NewGaugeFunc("skyaccess_coord_uptime_seconds",
		"seconds since the coordinator started",
		func() float64 { return time.Since(c.start).Seconds() })
	r.NewCounterFunc("skyaccess_coord_ingest_accepted_total",
		"records admitted to a shard queue or the warmup stage",
		func() float64 { return float64(c.accepted.Load()) })
	r.NewCounterFunc("skyaccess_coord_ingest_rejected_total",
		"records refused by a full queue or as too large to forward",
		func() float64 { return float64(c.rejected.Load()) })
	r.NewGaugeFunc("skyaccess_coord_shards",
		"shard nodes the coordinator routes to",
		func() float64 { return float64(len(c.nodes)) })
	r.NewGaugeFunc("skyaccess_coord_merge_generation",
		"merges of the shards' epoch results run",
		func() float64 {
			_, gen, _ := c.Latest("")
			return float64(gen)
		})
	r.NewGaugeFunc("skyaccess_coord_stale_shards",
		"shards whose contribution to the merge is last-known, not fresh",
		func() float64 {
			_, _, stale := c.Latest("")
			return float64(len(stale))
		})
	r.NewGaugeFunc("skyaccess_coord_merge_exact",
		"1 when relation-set sharding provably reproduces a single batch clustering",
		func() float64 { return b2f(c.MergeIsExact()) })
	r.NewCounterFunc("skyaccess_coord_forward_retries_total",
		"forward attempts that left part of a batch undelivered",
		func() float64 { return float64(c.retries.Load()) })
	r.NewCounterFunc("skyaccess_coord_route_records_total",
		"records routed",
		func() float64 { return float64(c.router.Routed()) })
	r.NewCounterFunc("skyaccess_coord_route_total_ns",
		"cumulative nanoseconds spent routing",
		func() float64 { return float64(c.router.RouteNanos()) })
	r.NewCounterFunc("skyaccess_coord_route_full_parses_total",
		"routed records whose relation set took a full parse",
		func() float64 { return float64(c.router.FullParses()) })
	r.NewGaugeFunc("skyaccess_coord_route_max_relations",
		"largest relation set routed",
		func() float64 { return float64(c.router.MaxRels()) })
	r.NewGaugeFunc("skyaccess_coord_template_cache_len",
		"templates resident in the router's cache",
		func() float64 { return float64(c.router.cache.Len()) })
	r.NewCounterFunc("skyaccess_coord_template_cache_hits_total",
		"routed records whose relation set came from a cached template",
		func() float64 { return float64(c.router.cache.Hits()) })
	r.NewCounterFunc("skyaccess_coord_template_cache_misses_total",
		"routed records no cached template matched",
		func() float64 { return float64(c.router.cache.Misses()) })

	if c.cfg.Traffic {
		r.NewGaugeFunc("skyaccess_coord_traffic_drift_events",
			"interest-drift events in the merged drift log",
			func() float64 {
				c.mergeMu.RLock()
				defer c.mergeMu.RUnlock()
				return float64(len(c.mergedDrift))
			})
		r.NewGaugeFunc("skyaccess_coord_traffic_interfaces_tracked",
			"distinct statement fingerprints the shards' interface miners track",
			func() float64 {
				c.mergeMu.RLock()
				defer c.mergeMu.RUnlock()
				return float64(c.ifaceTracked)
			})
	}

	for i := range c.nodes {
		prefix := "skyaccess_coord_shard_" + strconv.Itoa(i) + "_"
		r.NewGaugeFunc(prefix+"queue_depth",
			"records waiting in the shard's forward queue",
			func() float64 { return float64(len(c.queues[i])) })
		r.NewCounterFunc(prefix+"enqueued_total",
			"records admitted to the shard's forward queue",
			func() float64 { return float64(c.enqueued[i].Load()) })
		r.NewCounterFunc(prefix+"forwarded_total",
			"records the shard accepted",
			func() float64 { return float64(c.forwarded[i].Load()) })
		r.NewCounterFunc(prefix+"dropped_total",
			"records the shard refused, or abandoned at Close with the shard down",
			func() float64 { return float64(c.dropped[i].Load()) })
		r.NewGaugeFunc(prefix+"down",
			"1 while the shard is unreachable",
			func() float64 { return b2f(c.down[i].Load()) })
		r.NewGaugeFunc(prefix+"routed_load",
			"records the router assigned to the shard",
			func() float64 { return float64(c.router.Loads()[i]) })
	}
}

// Registry exposes the coordinator's private metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
