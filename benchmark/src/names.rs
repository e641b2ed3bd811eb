//! The one list of metric names, units, directions and bounds. The
//! result line, `results.json`, the README tables and `BENCHMARK.json`
//! all follow it; `tests/names.rs` fails when `BENCHMARK.json` drifts.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// How long one run measures (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: i64 = 25;

/// An end-to-end metric: name, unit, direction and the share of the
/// parent's median by which it may worsen before a change is rejected.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// The end-to-end metrics, reported by every workload with `--trace 0`.
/// Each bound is the smallest round value at least three times the
/// worst run-to-run spread `run.sh --aa` measured for the metric (see
/// README.md); `setup_s` carries the largest.
///
/// An *operation* is one query execution: `run_prepared` + reduce +
/// check in the three in-process workloads, one statement round trip
/// in `served_mix`. *Work* is simulated events (`paper_sweep`,
/// `jittered_grid`), stream elements (`element_pipeline`) or
/// statements (`served_mix`).
pub const END_TO_END: [EndToEnd; 5] = [
    ("setup_s", "s", Lower, 0.25),
    ("op_p50_ms", "ms", Lower, 0.10),
    ("op_p95_ms", "ms", Lower, 0.20),
    ("work_per_s", "1/s", Higher, 0.15),
    ("peak_rss_mb", "MB", Lower, 0.10),
];

/// A per-layer metric: name, unit, direction. No bound.
pub type PerLayer = (&'static str, &'static str, Better);

/// The per-layer metrics, reported by every workload with `--trace 1`.
/// A value of 0 on a workload means the workload does not reach that
/// layer (or the leg is another workload's).
pub const PER_LAYER: [PerLayer; 88] = [
    // scsq-sim
    ("sim.queue_push_pop_ns", "ns", Lower),
    ("sim.step_ns_per_event", "ns", Lower),
    ("sim.fifo_serve_ns", "ns", Lower),
    ("sim.switching_serve_ns", "ns", Lower),
    ("sim.hist_record_ns", "ns", Lower),
    ("sim.coalesce_jumps", "count", Higher),
    ("sim.coalesce_events_skipped", "count", Higher),
    ("sim.coalesce_skip_ratio", "ratio", Higher),
    // scsq-net
    ("net.torus_transmit_1k_ns", "ns", Lower),
    ("net.torus_transmit_50k_ns", "ns", Lower),
    ("net.torus_transmit_multihop_ns", "ns", Lower),
    ("net.ether_transmit_ns", "ns", Lower),
    ("net.tree_transfer_ns", "ns", Lower),
    // scsq-cluster
    ("cluster.env_new_us", "us", Lower),
    ("cluster.generate_ns", "ns", Lower),
    ("cluster.marshal_ns", "ns", Lower),
    ("cluster.demarshal_ns", "ns", Lower),
    ("cluster.compute_ns", "ns", Lower),
    ("cluster.mpi_transmit_ns", "ns", Lower),
    ("cluster.tcp_transmit_ns", "ns", Lower),
    ("cluster.compute_bulk_ns_per_elem", "ns", Lower),
    ("cluster.compute_each_ns_per_elem", "ns", Lower),
    // scsq-transport
    ("transport.enqueue_ns", "ns", Lower),
    ("transport.cycle_ns_per_buffer", "ns", Lower),
    ("transport.enqueue_pack_ns_per_elem", "ns", Lower),
    ("transport.buffers_sent", "count", Lower),
    ("transport.queue_peak_trains", "count", Lower),
    // scsq-ql
    ("ql.parse_us_per_stmt", "us", Lower),
    ("ql.print_us_per_stmt", "us", Lower),
    ("ql.transpose_ns_per_elem", "ns", Lower),
    // scsq-engine
    ("engine.prepare_us.p2p", "us", Lower),
    ("engine.prepare_us.merge", "us", Lower),
    ("engine.prepare_us.inbound", "us", Lower),
    ("engine.run_small_us", "us", Lower),
    ("engine.intern_hit_us", "us", Lower),
    ("engine.session_execute_us", "us", Lower),
    ("engine.render_us", "us", Lower),
    ("engine.leg_wall_s.fig6", "s", Lower),
    ("engine.leg_wall_s.fig8", "s", Lower),
    ("engine.leg_wall_s.fig15", "s", Lower),
    ("engine.leg_wall_s.take_sum", "s", Lower),
    ("engine.leg_wall_s.filter_heavy", "s", Lower),
    ("engine.leg_wall_s.relay", "s", Lower),
    ("engine.leg_wall_s.winagg_declined", "s", Lower),
    ("engine.events", "count", Lower),
    ("engine.events_pending_hwm", "count", Lower),
    ("engine.jitter_draws", "count", Lower),
    ("engine.columnar_batches", "count", Higher),
    ("engine.columnar_transposes", "count", Lower),
    ("engine.columnar_absorb_ratio", "ratio", Higher),
    ("engine.columnar_batches.take_sum", "count", Higher),
    ("engine.columnar_batches.filter_heavy", "count", Higher),
    ("engine.columnar_batches.relay", "count", Higher),
    ("engine.columnar_batches.winagg_declined", "count", Lower),
    // scsq-core
    ("core.write_frame_ns", "ns", Lower),
    ("core.read_frame_ns", "ns", Lower),
    ("core.connect_us", "us", Lower),
    ("core.tcp_rtt_us", "us", Lower),
    ("core.unix_rtt_us", "us", Lower),
    ("core.compilations", "count", Lower),
    ("core.plan_cache_hits", "count", Higher),
    ("core.plan_cache_len", "count", Lower),
    ("core.plan_cache_hit_ratio", "ratio", Higher),
    // scsq-bench
    ("bench.pool_base_wall_s", "s", Lower),
    ("bench.pool_speedup_jobs2", "ratio", Higher),
    // Simulated behaviour: recorded, never gated.
    ("simtime.digest", "hash", Lower),
    ("simtime.fig6_peak_mbps", "MB/s", Higher),
    // The served statement path, replicated in process.
    ("served.trace.engine_us", "us", Lower),
    ("served.trace.render_us", "us", Lower),
    ("served.trace.frame_us", "us", Lower),
    ("served.trace.socket_residual_us", "us", Lower),
    // The traced pass.
    ("trace.overhead_share", "ratio", Lower),
    ("trace.closure_error_share", "ratio", Lower),
    // Estimated attribution of the operation wall: count × unit cost.
    ("attrib.sim_share", "ratio", Lower),
    ("attrib.net_share", "ratio", Lower),
    ("attrib.cluster_share", "ratio", Lower),
    ("attrib.transport_share", "ratio", Lower),
    ("attrib.engine_share", "ratio", Lower),
    ("attrib.core_share", "ratio", Lower),
    ("attrib.unexplained_share", "ratio", Lower),
    // Statistics of the untraced reference window.
    ("pass.wall_s_median", "s", Lower),
    ("pass.wall_s_q1", "s", Lower),
    ("pass.wall_s_q3", "s", Lower),
    ("pass.wall_s_mad", "s", Lower),
    ("pass.count", "count", Higher),
    ("op.count", "count", Higher),
    ("op.tail_percentile", "ratio", Higher),
    ("setup.first_cycle_s", "s", Lower),
];

/// Why each workload was chosen, one line each (`BENCHMARK.json`).
pub const WORKLOAD_WHY: [(&str, &str); 4] = [
    (
        "paper_sweep",
        "Fig 6+8+15 grids at paper scale, periodic schedules: the coalescer does the work, the per-event path almost none",
    ),
    (
        "jittered_grid",
        "same grids with 5% service jitter: trains cannot form, every event walks queue, environment, networks and channels",
    ),
    (
        "element_pipeline",
        "four pipelines over 250k 9-byte integers: the executor's column kernels and its declined fallback path, sparse kernel events",
    ),
    (
        "served_mix",
        "closed loop of 2 connections to a spawned scsqd: framing, sockets, SessionHub locking and compile-on-miss dominate",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|(n, u, _, _)| (*n, *u))
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
            .chain(WORKLOAD_WHY.iter().map(|(n, _)| (*n, "x")))
        {
            assert!(valid_name(name), "bad name `{name}`");
            assert!(valid_unit(unit), "bad unit `{unit}` of `{name}`");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        assert!((2..=8).contains(&WORKLOAD_WHY.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for (name, why) in WORKLOAD_WHY {
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
    }

    #[test]
    fn bounds_fit_the_contract_and_setup_has_the_largest() {
        let setup = END_TO_END
            .iter()
            .find(|(n, _, _, _)| *n == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.1, setup.2), ("s", Better::Lower));
        for (name, _, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
            assert!(bound <= setup.3, "{name} has a larger bound than setup_s");
        }
    }

    #[test]
    fn benchmark_json_is_what_names_rs_says() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
        let committed = json::parse(&text).expect("BENCHMARK.json parses");
        let expected = crate::manifest();
        let keys = |j: &Json| -> Vec<String> {
            j.as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(keys(&committed), keys(&expected), "top-level keys");
        assert_eq!(
            committed, expected,
            "BENCHMARK.json differs from names.rs; regenerate it with \
             `scsq-benchmark manifest > BENCHMARK.json`"
        );
    }
}
