package main

// metricDef describes one reported metric: its unit, which direction is
// better, and — for per-layer metrics — the end-to-end metric and workloads
// a change to it should move. BENCHMARK.json lists the same names, units and
// directions; TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Moves names the end-to-end metric and workloads this layer metric
	// should move ("" for end-to-end metrics).
	Moves string
}

// Workload names, used in Moves.
const (
	ntt   = "replay-ntt-64"
	geant = "replay-geant-1500-live"
	drift = "drift-geant-diurnal"
)

// endToEnd are the metrics a --trace 0 run reports. error_rate,
// max_work_share and moved_frac are printed too, but they are 0 or constant
// by construction, so they ride in the result's failed count and in the
// per-layer set instead (see README.md).
var endToEnd = []metricDef{
	{Name: "pps", Unit: "1/s", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the metrics a --trace 1 run reports, every one on every
// workload.
var perLayer = []metricDef{
	{"packet.generate_s", "s", "lower", "pps on " + geant + " most, " + drift + " next, " + ntt + " least"},
	{"packet.generate_share", "ratio", "lower", "pps on " + geant + " most, " + drift + " next, " + ntt + " least"},

	{"shim.compile_ms", "ms", "lower", "pps on " + ntt},
	{"shim.hash_ns", "ns", "lower", "pps on " + ntt},
	{"shim.decide_flow_ns", "ns", "lower", "pps on " + ntt},
	{"shim.decide_all_ns", "ns", "lower", "pps on " + drift},
	{"shim.dual_share", "ratio", "lower", "pps on " + drift},
	{"shim.tunnel_ns_per_pkt", "ns", "lower", "pps on " + geant},
	{"shim.tunnel_mb", "MB", "lower", "pps on " + geant},
	{"shim.replicate_share", "ratio", "lower", "pps on " + geant},

	{"nids.process_ns_per_pkt", "ns", "lower", "pps on " + ntt + " and " + geant},
	{"nids.scan_ns_per_byte", "ns", "lower", "pps on " + geant},
	{"nids.stats_us", "us", "lower", "pps on " + ntt},
	{"nids.flows", "count", "lower", "peak_rss_mb on every workload"},
	{"nids.allocs_per_pkt", "count", "lower", "pps and peak_rss_mb on " + ntt + " and " + geant},

	{"obs.record_ns", "ns", "lower", "pps on " + ntt + ", barely on " + geant},
	{"obs.poll_us", "us", "lower", "pps on " + ntt + ", barely on " + geant},
	{"obs.advance_ns", "ns", "lower", "pps on " + ntt + ", barely on " + geant},

	{"emulation.run_s", "s", "lower", "pps on every workload"},
	{"emulation.self_s", "s", "lower", "pps on every workload"},
	{"emulation.allocs_per_pkt", "count", "lower", "peak_rss_mb and pps on every workload"},
	{"emulation.bytes_per_pkt", "B", "lower", "peak_rss_mb and pps on every workload"},
	{"emulation.max_work_share", "ratio", "lower", "outcome: the paper's balance result on the replays"},

	{"core.build_s", "s", "lower", "setup_s on " + ntt + " and pps on " + drift + "; nothing on " + geant},
	{"lp.phase1_s", "s", "lower", "setup_s on " + ntt + " and pps on " + drift + "; nothing on " + geant},
	{"lp.phase2_s", "s", "lower", "setup_s on " + ntt + " and pps on " + drift + "; nothing on " + geant},
	{"core.extract_s", "s", "lower", "setup_s on " + ntt + " and pps on " + drift + "; nothing on " + geant},
	{"lp.pivots", "count", "lower", "setup_s on " + ntt + " and pps on " + drift + "; nothing on " + geant},
	{"lp.refactorizations", "count", "lower", "setup_s on " + ntt + " and pps on " + drift + "; nothing on " + geant},
	{"lp.ns_per_pivot", "ns", "lower", "setup_s on " + ntt + " and pps on " + drift + "; nothing on " + geant},
	{"lp.degenerate_share", "ratio", "lower", "setup_s on " + ntt + " and pps on " + drift + "; nothing on " + geant},
	{"lp.phase1_skip_share", "ratio", "higher", "pps on " + drift},
	{"lp.warm_speedup", "ratio", "higher", "pps on " + drift},

	{"controller.propose_ms", "ms", "lower", "pps on " + drift + " only"},
	{"controller.plan_ms", "ms", "lower", "pps on " + drift + " only"},
	{"controller.apply_ms", "ms", "lower", "pps on " + drift + " only"},
	{"controller.confirm_ms", "ms", "lower", "pps on " + drift + " only"},
	{"controller.poll_us", "us", "lower", "pps on " + drift + " only"},
	{"controller.reconfigs", "count", "lower", "pps on " + drift + " only"},
	{"controller.drift_events", "count", "lower", "pps on " + drift + " only"},
	{"controller.moved_frac", "ratio", "lower", "outcome: reconfiguration churn on " + drift},

	{"trace.pps_overhead", "ratio", "lower", "none: traced against untraced pps in the same process"},
	{"trace.setup_overhead", "ratio", "lower", "none: traced against untraced setup_s in the same process"},
}
