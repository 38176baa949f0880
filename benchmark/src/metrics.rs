//! The metric catalogue — the one place a metric's name and unit are
//! written down — and the result line the driver reads.
//!
//! `BENCHMARK.json` lists the same names (a test diffs the two). Every
//! workload reports every metric: all eight end-to-end ones from a timed
//! run (`--trace 0`), all per-layer ones from a traced run (`--trace 1`).

use std::collections::BTreeMap;
use std::fmt::Write;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees. README.md defines each.
pub const END_TO_END: [MetricDef; 8] = [
    m("setup_s", "s"),
    m("ops_per_s", "op/s"),
    m("server_cpu_us_per_op", "us"),
    m("p50_us", "us"),
    m("sim_ops_per_s", "op/s"),
    m("wall_us_per_op", "us"),
    m("unavail_ms", "ms"),
    m("failover_ms", "ms"),
];

/// Single-layer metrics, layer = crate/module name. README.md gives
/// each one's source and the end-to-end metric it should move.
pub const PER_LAYER: [MetricDef; 64] = [
    m("proto.req_encode_ns", "ns"),
    m("proto.req_decode_ns", "ns"),
    m("proto.resp_encode_ns", "ns"),
    m("proto.resp_decode_ns", "ns"),
    m("proto.req_bytes", "bytes"),
    m("proto.resp_bytes", "bytes"),
    m("core.authority_standing_ns", "ns"),
    m("core.client_lease_ns", "ns"),
    m("core.authority_mem_bytes", "bytes"),
    m("server.session_admit_ns", "ns"),
    m("server.session_replay_entries", "count"),
    m("server.replays_per_op", "count"),
    m("server.lock_request_ns", "ns"),
    m("server.lock_release_ns", "ns"),
    m("server.lock_demands_per_op", "count"),
    m("server.pushes_per_op", "count"),
    m("server.steal_latency_ns_p50", "ns"),
    m("server.requests_per_op", "count"),
    m("server.nacks_per_op", "count"),
    m("meta.getattr_ns", "ns"),
    m("meta.lookup_ns", "ns"),
    m("meta.setattr_ns", "ns"),
    m("meta.create_ns", "ns"),
    m("meta.unlink_ns", "ns"),
    m("meta.txn_per_op", "count"),
    m("meta.wal_append_ns", "ns"),
    m("meta.wal_fsync_ns", "ns"),
    m("meta.wal_bytes_per_mutation", "bytes"),
    m("meta.wal_fsyncs_per_mutation", "count"),
    m("meta.wal_replay_ns_per_record", "ns"),
    m("net.drain_ns_per_dgram", "ns"),
    m("net.decode_batch_ns_per_dgram", "ns"),
    m("net.poll_wait_ns", "ns"),
    m("net.timer_arm_pop_ns", "ns"),
    m("net.user_cpu_us_per_op", "us"),
    m("net.sys_cpu_us_per_op", "us"),
    m("net.ctx_switches_per_op", "count"),
    m("net.dgrams_in_per_op", "count"),
    m("net.dgrams_out_per_op", "count"),
    m("net.unattributed_cpu_us_per_op", "us"),
    m("net.peak_rss_kib", "KiB"),
    m("net.p99_us", "us"),
    m("net.lost_frac", "ratio"),
    m("net.gen_late_p99_us", "us"),
    m("client.cache_get_ns", "ns"),
    m("client.cache_fill_ns", "ns"),
    m("client.cache_write_ns", "ns"),
    m("client.cache_hit_ratio", "ratio"),
    m("client.cache_evictions_per_op", "count"),
    m("client.batch_size_mean", "count"),
    m("client.keepalives_per_op", "count"),
    m("client.retransmits_per_op", "count"),
    m("client.renewal_headroom_ms_min", "ms"),
    m("storage.disk_read_ns", "ns"),
    m("storage.disk_write_ns", "ns"),
    m("storage.san_msgs_per_op", "count"),
    m("shard.owner_of_ns", "ns"),
    m("shard.imbalance", "ratio"),
    m("sim.events_per_wall_s", "1/s"),
    m("sim.ctl_msgs_per_op", "count"),
    m("sim.ctl_bytes_per_op", "bytes"),
    m("obs.counter_inc_ns", "ns"),
    m("obs.hist_observe_ns", "ns"),
    m("trace.overhead_frac", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The last line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`, the metrics being
/// exactly `defs`, in catalogue order. A missing or non-finite value is a
/// bug in the harness, not a measurement, and panics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        let v = *values
            .get(d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        assert!(v.is_finite(), "metric {} is {v}", d.name);
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_shape() {
        let defs = [m("a_ms", "ms"), m("b", "count")];
        let mut v = Values::new();
        v.insert("a_ms", 1.25);
        v.insert("b", 3.0);
        v.insert("extra", 9.0);
        assert_eq!(
            result_line(true, 10, 0, &defs, &v),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_a_missing_metric() {
        result_line(true, 1, 0, &[m("a", "s")], &Values::new());
    }
}
