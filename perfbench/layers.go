package main

import "path/filepath"

// traceDir receives the span dump of every traced run.
var traceDir = filepath.Join(".bench_build", "traces")

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. A workload that never enters a layer reports 0 for it. Counts and
// times are per operation (one Select or one re-selection) unless
// the name carries a percentile.
var layerUnits = map[string]string{
	"cvcp.folds_s":              "s",
	"cvcp.cells":                "count",
	"cvcp.cell_s":               "s",
	"cvcp.refit_s":              "s",
	"cvcp.overhead_s":           "s",
	"runner.busy_frac":          "frac",
	"runner.runcache_hits":      "count",
	"runner.runcache_misses":    "count",
	"runner.limiter_wait_s":     "s",
	"replay.folds_s":            "s",
	"linalg.distmatrix_s":       "s",
	"linalg.bytes_computed":     "B",
	"optics.run_s":              "s",
	"optics.runs":               "count",
	"hierarchy.dendrogram_s":    "s",
	"fosc.extract_s":            "s",
	"fosc.calls":                "count",
	"eval.constraintf_s":        "s",
	"mpckmeans.run_s":           "s",
	"mpckmeans.calls":           "count",
	"mpckmeans.iters":           "count",
	"copkmeans.run_s":           "s",
	"copkmeans.iters":           "count",
	"copkmeans.infeasible":      "count",
	"replay.coverage":           "frac",
	"dataset.decode_s":          "s",
	"server.queue_wait_ms.p50":  "ms",
	"server.queue_wait_ms.p90":  "ms",
	"server.run_ms.p50":         "ms",
	"server.observe_lag_ms.p50": "ms",
	"store.puts":                "count",
	"store.put_ms.p50":          "ms",
	"store.put_ms.p90":          "ms",
	"store.append_events":       "count",
	"store.fsyncs":              "count",
	"store.fsync_s":             "s",
	"store.updates":             "count",
	"store.update_ms.p50":       "ms",
	"store.get_ms.p50":          "ms",
	"store.wal_bytes_per_job":   "B",
	"dist.shards":               "count",
	"dist.leases":               "count",
	"dist.reclaims":             "count",
	"dist.shard_ms.p50":         "ms",
	"dist.poll_wait_ms.p50":     "ms",
	"cellcache.hits":            "count",
	"cellcache.misses":          "count",
	"cellcache.writes":          "count",
	"cellcache.reuse_frac":      "frac",
	"client.ack_ms.p50":         "ms",
	"trace.overhead_ms":         "ms",
	"trace.spans":               "count",
}

// zeroLayers returns every per-layer metric at 0.
func zeroLayers() map[string]float64 {
	out := make(map[string]float64, len(layerUnits))
	for name := range layerUnits {
		out[name] = 0
	}
	return out
}

// setLayers copies the per-layer values into the outcome, refusing names
// outside layerUnits so the result and BENCHMARK.json cannot drift.
func setLayers(out *outcome, layers map[string]float64) {
	for name, v := range layers {
		unit, ok := layerUnits[name]
		if !ok {
			panic("perfbench: undeclared layer metric " + name)
		}
		out.set(name, unit, v, 1)
	}
}

// engineLayers fills the runner, cell-cache and shard-lease metrics from
// the process registry's counters, per operation.
func engineLayers(layers map[string]float64, before, after map[string]float64, ops float64) {
	layers["runner.runcache_hits"] = counterDelta(before, after, "cvcpd_runcache_hits_total") / ops
	layers["runner.runcache_misses"] = counterDelta(before, after, "cvcpd_runcache_misses_total") / ops
	layers["runner.limiter_wait_s"] = counterDelta(before, after, "cvcpd_limiter_wait_seconds_sum") / ops
	layers["cellcache.hits"] = counterDelta(before, after, "cvcpd_cellcache_hits_total") / ops
	layers["cellcache.misses"] = counterDelta(before, after, "cvcpd_cellcache_misses_total") / ops
	layers["cellcache.writes"] = counterDelta(before, after, "cvcpd_cellcache_writes_total") / ops
	layers["dist.leases"] = counterDelta(before, after, "cvcpd_shard_leases_total") / ops
	layers["dist.reclaims"] = counterDelta(before, after, "cvcpd_shard_reclaims_total") / ops
}
