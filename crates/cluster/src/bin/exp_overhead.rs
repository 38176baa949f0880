//! E6 — the abstract's claim, quantified: "during normal operation, this
//! protocol invokes no message overhead, and uses no memory and performs
//! no computation at the locking authority."
//!
//! Sweeps client count and cached-object count across the four lease
//! schemes on the lease-layer world, reporting maintenance messages per
//! useful op, peak server lease-state bytes, and lease-related server
//! operations.
//!
//! Asserted: for active tank clients all three are 0 in every cell; idle
//! tank clients send keep-alives but still cost the server no lease bytes
//! and no lease operations.

use tank_baselines::{run_lease_layer, LayerParams, Scheme};
use tank_cluster::table::{f, Table};
use tank_sim::{LocalNs, SimTime};

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
    ]);
    for &x in xs {
        for scheme in [
            Scheme::Tank,
            Scheme::VLease,
            Scheme::Heartbeat,
            Scheme::NfsPoll,
        ] {
            let r = run_lease_layer(scheme, params_of(x));
            if scheme == Scheme::Tank {
                assert_eq!(
                    (r.maintenance_msgs, r.peak_lease_bytes, r.server_lease_ops),
                    (0, 0, 0),
                    "{label} = {x}: tank's lease cost is not zero"
                );
            }
            t.row(vec![
                x.to_string(),
                r.scheme.label().into(),
                r.useful_ops.to_string(),
                r.maintenance_msgs.to_string(),
                f(r.maint_per_op),
                r.peak_lease_bytes.to_string(),
                r.server_lease_ops.to_string(),
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
    ]);
    for scheme in [
        Scheme::Tank,
        Scheme::VLease,
        Scheme::Heartbeat,
        Scheme::NfsPoll,
    ] {
        let r = run_lease_layer(
            scheme,
            LayerParams {
                op_period: None,
                ..base
            },
        );
        if scheme == Scheme::Tank {
            assert_eq!(
                (r.peak_lease_bytes, r.server_lease_ops),
                (0, 0),
                "idle tank clients cost the server lease state or work"
            );
        }
        t.row(vec![
            r.scheme.label().into(),
            r.maintenance_msgs.to_string(),
            r.peak_lease_bytes.to_string(),
            r.server_lease_ops.to_string(),
        ]);
    }
    print!("{}", t.render());
}
