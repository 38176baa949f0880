//! E7 — §4: Storage Tank's single per-client lease vs V-style per-object
//! leases.
//!
//! The paper's argument: "Implementing all data locks as leases either
//! introduces a runtime overhead or effects caching policies. ... A single
//! lease between each client and server more accurately describes these
//! failures." Two sweeps make that concrete:
//!
//! * renewal traffic as the cached-object count grows (the runtime
//!   overhead arm), and
//! * what happens when a V client chooses NOT to pay: objects whose lease
//!   lapses must drop from the cache (the caching-policy arm), measured
//!   as forced evictions per minute.
//!
//! Asserted: tank's maintenance messages, lease bytes and server-side lease
//! operations are 0 at every cache size.

use tank_baselines::{run_lease_layer, LayerParams, Scheme};
use tank_cluster::table::{f, Table};
use tank_sim::{LocalNs, SimTime};

fn main() {
    let base = LayerParams {
        clients: 16,
        objects_per_client: 64,
        op_period: Some(LocalNs::from_millis(100)),
        tau: LocalNs::from_secs(10),
        duration: SimTime::from_secs(120),
        seed: 2,
    };

    println!("E7a — renewal traffic vs cached objects (16 clients, 120s, op each ≈100ms)");
    let mut t = Table::new(&[
        "objects/client",
        "tank maint msgs",
        "v-lease maint msgs",
        "v-lease msgs/s/client",
        "v-lease lease bytes",
    ]);
    for m in [8usize, 32, 128, 512, 2048] {
        let p = LayerParams {
            objects_per_client: m,
            ..base
        };
        let tank = run_lease_layer(Scheme::Tank, p);
        let v = run_lease_layer(Scheme::VLease, p);
        assert_eq!(
            (
                tank.maintenance_msgs,
                tank.peak_lease_bytes,
                tank.server_lease_ops
            ),
            (0, 0, 0),
            "{m} objects/client: tank's lease cost is not zero"
        );
        t.row(vec![
            m.to_string(),
            tank.maintenance_msgs.to_string(),
            v.maintenance_msgs.to_string(),
            f(v.maintenance_msgs as f64 / 120.0 / 16.0),
            v.peak_lease_bytes.to_string(),
        ]);
    }
    print!("{}", t.render());

    println!();
    println!("E7b — the caching-policy arm: if a V client renews nothing, every cached");
    println!("object lapses once per τ. Evictions/minute a non-renewing V cache suffers:");
    let mut t = Table::new(&["objects/client", "forced evictions per client-minute"]);
    for m in [8usize, 32, 128, 512, 2048] {
        // A lapsed object must be dropped and re-fetched: one eviction per
        // object per τ when the client declines renewal traffic.
        let per_min = m as f64 * 60.0 / 10.0;
        t.row(vec![m.to_string(), f(per_min)]);
    }
    print!("{}", t.render());
    println!();
    println!("tank: one lease covers the whole cache; idle cost is a single keep-alive");
    println!("stream (τ/20 here), independent of cache size — see E6b.");
}
