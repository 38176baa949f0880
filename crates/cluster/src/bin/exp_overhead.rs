//! E6 — the abstract's claim, quantified: "during normal operation, this
//! protocol invokes no message overhead, and uses no memory and performs
//! no computation at the locking authority."
//!
//! Sweeps client count and cached-object count, reporting maintenance
//! messages per useful op, peak server lease-state bytes, and lease-related
//! server operations. The tank rows are measured on the full cluster
//! ([`run_tank_layer`]); the v-lease, heartbeat and nfs-poll rows come from
//! the lease-layer miniature, since the system implements none of them.
//! Tank's useful ops include reads and stats its caches serve, while every
//! comparator op is a server round trip.
//!
//! Asserted, for every tank cell: 0 lease bytes, 0 lease server-ops, and
//! no more keep-alives than the same clients send idle.

use tank_baselines::{run_lease_layer, LayerParams, LayerReport, Scheme};
use tank_cluster::lease_cost::assert_no_lease_cost;
use tank_cluster::run_tank_layer;
use tank_cluster::table::{f, Table};
use tank_sim::{LocalNs, SimTime};

/// Every scheme's cell for `p`, labelled, with its at-most-once entries
/// ("-" where the miniature models none). The tank cell is checked.
fn cells(p: LayerParams) -> Vec<(&'static str, LayerReport, String)> {
    let run = run_tank_layer(p);
    let tank = run.lease_cost();
    assert_no_lease_cost(p, &tank);
    let mut out = vec![("tank", tank, run.replay_entries.to_string())];
    for scheme in [Scheme::VLease, Scheme::Heartbeat, Scheme::NfsPoll] {
        out.push((scheme.label(), run_lease_layer(scheme, p), "-".into()));
    }
    out
}

fn sweep(label: &str, params_of: &dyn Fn(usize) -> LayerParams, xs: &[usize]) {
    println!("E6 — {label} (τ=10s, 60s virtual, active clients: one op ≈ every 50ms)");
    let mut t = Table::new(&[
        label,
        "scheme",
        "useful ops",
        "maint msgs",
        "maint/op",
        "lease bytes (peak)",
        "lease server-ops",
        "at-most-once entries",
    ]);
    for &x in xs {
        for (scheme, r, amo) in cells(params_of(x)) {
            t.row(vec![
                x.to_string(),
                scheme.into(),
                r.useful_ops.to_string(),
                r.maintenance_msgs.to_string(),
                f(r.maint_per_op),
                r.peak_lease_bytes.to_string(),
                r.server_lease_ops.to_string(),
                amo,
            ]);
        }
    }
    print!("{}", t.render());
}

fn main() {
    let base = LayerParams {
        clients: 8,
        objects_per_client: 64,
        op_period: Some(LocalNs::from_millis(50)),
        tau: LocalNs::from_secs(10),
        duration: SimTime::from_secs(60),
        seed: 1,
    };
    sweep(
        "clients",
        &|n| LayerParams { clients: n, ..base },
        &[1, 4, 16, 64, 256],
    );
    println!();
    sweep(
        "objects/client",
        &|m| LayerParams {
            objects_per_client: m,
            ..base
        },
        &[16, 64, 256, 1024],
    );
    println!();
    println!("E6b — idle clients (caching but not operating): tank falls back to keep-alives");
    let mut t = Table::new(&[
        "scheme",
        "maint msgs",
        "lease bytes (peak)",
        "lease server-ops",
        "at-most-once entries",
    ]);
    for (scheme, r, amo) in cells(LayerParams {
        op_period: None,
        ..base
    }) {
        t.row(vec![
            scheme.into(),
            r.maintenance_msgs.to_string(),
            r.peak_lease_bytes.to_string(),
            r.server_lease_ops.to_string(),
            amo,
        ]);
    }
    print!("{}", t.render());
    println!();
    println!("tank rows: the full cluster; its useful ops count reads and stats served from");
    println!("the client cache, and a client the cache serves sends keep-alives like an idle");
    println!("one. Comparator rows: the lease-layer miniature, every op a server round trip.");
    println!("at-most-once entries: responses in the server's replay caches at the end of");
    println!("the run, kept for at-most-once delivery, not lease state; the miniature has none.");
}
