package main

// metricDef names one reported figure. clock says what it was read on:
// "host wall", "host cpu", "host heap", "device" (the simulated clock) or
// "count" (a ratio of event or byte counts, which has no clock). BENCHMARK.json
// at the repository root lists the same names, units and directions; the go
// test in this directory holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	clock  string
	bound  float64 // end-to-end only: tolerated worsening, share of the median
}

// endToEnd is what -trace 0 prints: what a user of the system would see.
//
// The bounds come from the A/A table in README.md: at least twice the
// largest gap between two sets of runs of the same code and at least three
// times the widest quartile spread any workload showed, capped at 0.25. On
// the reference host every host-clock figure hits the cap: memory-bound
// code there runs up to 1.5x slower for minutes at a time. The simulated
// and count metrics are the tight gates.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "host wall", 0.25},
	{"ops_per_s", "1/s", "higher", "host wall", 0.25},
	{"cpu_us_per_op", "us", "lower", "host cpu", 0.25},
	{"live_heap_mib", "MiB", "lower", "host heap", 0.06},
	{"lat_p50_us", "us", "lower", "host wall", 0.25},
	{"sim_ops_per_s", "1/s", "higher", "device", 0.08},
	{"hit_ratio", "ratio", "higher", "count", 0.01},
	{"wa_nand", "ratio", "lower", "count", 0.06},
}

// perLayer is what -trace 1 prints. A metric that does not apply to a
// workload (f2fs.* on a Region-Cache server, bigobj.* anywhere but
// replay_cdn) reads 0 there.
var perLayer = []metricDef{
	// Three figures the issue listed as end-to-end that cannot hold a bound.
	// lat_p99_us: on serve_get_hot the 99th percentile sits at the knee
	// between the body of the distribution and a millisecond-scale tail
	// that 1-3 % of batches hit; which side of 1 % that share falls moves
	// the figure 3x between identical runs. The simulated percentiles come
	// from 12 %-wide log buckets: two runs read identical or a whole bucket
	// apart, and on serve_get_hot the get figure is a constant.
	{"lat_p99_us", "us", "lower", "host wall", 0},
	{"sim_get_p99_us", "us", "lower", "device", 0},
	{"sim_set_p99_us", "us", "lower", "device", 0},
	{"lat_p999_us", "us", "lower", "host wall", 0},
	{"lat_max_us", "us", "lower", "host wall", 0},
	{"gen_late_p99_us", "us", "lower", "host wall", 0},

	{"server.backend_us_per_op", "us", "lower", "host wall", 0},
	{"server.batch_ops_mean", "count", "higher", "count", 0},
	{"server.self_us_per_op", "us", "lower", "host cpu", 0},

	{"cache.lock_wait_us_per_kop", "us", "lower", "host wall", 0},
	{"cache.exec_us_per_batch", "us", "lower", "host wall", 0},
	{"cache.get_ns", "ns", "lower", "host wall", 0},
	{"cache.set_ns", "ns", "lower", "host wall", 0},
	{"cache.set_p999_us", "us", "lower", "host wall", 0},
	{"cache.self_us_per_op", "us", "lower", "host wall", 0},
	{"cache.fast_hit_share", "ratio", "higher", "count", 0},
	{"cache.flushes_per_kop", "count", "lower", "count", 0},
	{"cache.evictions_per_kop", "count", "lower", "count", 0},
	{"cache.reinserts_per_kop", "count", "lower", "count", 0},
	{"cache.heap_bytes_per_item", "B", "lower", "host heap", 0},

	{"store.write_region_us", "us", "lower", "host wall", 0},
	{"store.write_region_p99_us", "us", "lower", "host wall", 0},
	{"store.read_region_us", "us", "lower", "host wall", 0},
	{"store.evict_region_us", "us", "lower", "host wall", 0},
	{"store.sim_write_region_us", "us", "lower", "device", 0},
	{"store.sim_read_region_us", "us", "lower", "device", 0},
	{"store.reads_per_hit", "ratio", "higher", "count", 0},

	{"middle.gc_runs", "count", "lower", "count", 0},
	{"middle.migrated_per_flush", "ratio", "lower", "count", 0},
	{"middle.wa", "ratio", "lower", "count", 0},
	{"middle.gc_sim_share", "ratio", "lower", "device", 0},
	{"middle.budget_stalls", "count", "lower", "count", 0},
	{"middle.stall_sim_ms", "ms", "lower", "device", 0},
	{"zns.host_write_mib", "MiB", "lower", "count", 0},
	{"zns.resets", "count", "lower", "count", 0},
	{"zns.finishes", "count", "lower", "count", 0},
	{"zns.finish_fill_pages", "count", "lower", "count", 0},
	{"f2fs.wa", "ratio", "lower", "count", 0},
	{"f2fs.clean_runs", "count", "lower", "count", 0},
	{"f2fs.checkpoints", "count", "lower", "count", 0},
	{"ssd.wa", "ratio", "lower", "count", 0},
	{"ssd.gc_runs", "count", "lower", "count", 0},
	{"flash.programs_per_op", "ratio", "lower", "count", 0},
	{"flash.reads_per_hit", "ratio", "higher", "count", 0},
	{"flash.erases", "count", "lower", "count", 0},
	{"wa.engine", "ratio", "lower", "count", 0},
	{"wa.store", "ratio", "lower", "count", 0},
	{"wa.device", "ratio", "lower", "count", 0},

	{"bigobj.put_us", "us", "lower", "host wall", 0},
	{"bigobj.read_us", "us", "lower", "host wall", 0},
	{"bigobj.chunk_hit_share", "ratio", "higher", "count", 0},
	{"bigobj.partial_miss_share", "ratio", "lower", "count", 0},
	{"bigobj.fill_bytes_per_served_byte", "ratio", "lower", "count", 0},

	{"region.sim_ops_per_s", "1/s", "higher", "device", 0},
	{"region.hit_ratio", "ratio", "higher", "count", 0},
	{"region.wa_nand", "ratio", "lower", "count", 0},
	{"region.cpu_us_per_op", "us", "lower", "host cpu", 0},
	{"zone.sim_ops_per_s", "1/s", "higher", "device", 0},
	{"zone.hit_ratio", "ratio", "higher", "count", 0},
	{"zone.wa_nand", "ratio", "lower", "count", 0},
	{"zone.cpu_us_per_op", "us", "lower", "host cpu", 0},
	{"file.sim_ops_per_s", "1/s", "higher", "device", 0},
	{"file.hit_ratio", "ratio", "higher", "count", 0},
	{"file.wa_nand", "ratio", "lower", "count", 0},
	{"file.cpu_us_per_op", "us", "lower", "host cpu", 0},
	{"block.sim_ops_per_s", "1/s", "higher", "device", 0},
	{"block.hit_ratio", "ratio", "higher", "count", 0},
	{"block.wa_nand", "ratio", "lower", "count", 0},
	{"block.cpu_us_per_op", "us", "lower", "host cpu", 0},

	{"probe.workload_next_ns", "ns", "lower", "host wall", 0},
	{"probe.cache_set_ns", "ns", "lower", "host wall", 0},
	{"probe.cache_get_open_ns", "ns", "lower", "host wall", 0},
	{"probe.cache_get_sealed_ns", "ns", "lower", "host wall", 0},
	{"probe.middle_write_region_ns", "ns", "lower", "host wall", 0},
	{"probe.middle_write_region_gc_ns", "ns", "lower", "host wall", 0},
	{"probe.zns_write_ns_per_page", "ns", "lower", "host wall", 0},
	{"probe.zns_read_ns_per_page", "ns", "lower", "host wall", 0},
	{"probe.zns_reset_ns", "ns", "lower", "host wall", 0},
	{"probe.flash_program_ns", "ns", "lower", "host wall", 0},
	{"probe.flash_read_ns", "ns", "lower", "host wall", 0},
	{"probe.f2fs_write_ns_per_block", "ns", "lower", "host wall", 0},
	{"probe.ssd_write_ns_per_page", "ns", "lower", "host wall", 0},
	{"probe.bigobj_put_ns_per_mib", "ns", "lower", "host wall", 0},
	{"probe.bigobj_read_ns_per_mib", "ns", "lower", "host wall", 0},
	{"probe.ring_owners_ns", "ns", "lower", "host wall", 0},

	{"go.gc_cpu_share", "ratio", "lower", "host cpu", 0},
	{"go.alloc_bytes_per_op", "B", "lower", "host heap", 0},
	{"go.allocs_per_op", "count", "lower", "host heap", 0},
	{"peak_rss_mib", "MiB", "lower", "host heap", 0},
	{"host.calib_ns", "ns", "lower", "host wall", 0},
	{"trace.overhead_share", "ratio", "lower", "host cpu", 0},
	{"budget.coverage", "ratio", "higher", "host cpu", 0},
}
