//! E7 — §4: Storage Tank's single per-client lease vs V-style per-object
//! leases.
//!
//! The paper's argument: "Implementing all data locks as leases either
//! introduces a runtime overhead or effects caching policies. ... A single
//! lease between each client and server more accurately describes these
//! failures." This sweep makes the runtime-overhead arm concrete: renewal
//! traffic as the cached-object count grows. The tank column is measured
//! on the full cluster ([`run_tank_layer`]), the v-lease columns on the
//! lease-layer miniature.
//!
//! Asserted, at every cache size: tank holds 0 lease bytes, does 0 lease
//! server-ops, and sends no more keep-alives than the same clients idle.

use tank_baselines::{run_lease_layer, LayerParams, Scheme};
use tank_cluster::lease_cost::assert_no_lease_cost;
use tank_cluster::run_tank_layer;
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
        let tank = run_tank_layer(p).lease_cost();
        assert_no_lease_cost(p, &tank);
        let v = run_lease_layer(Scheme::VLease, p);
        t.row(vec![
            m.to_string(),
            tank.maintenance_msgs.to_string(),
            v.maintenance_msgs.to_string(),
            f(v.maintenance_msgs as f64 / 120.0 / 16.0),
            v.peak_lease_bytes.to_string(),
        ]);
    }
    print!("{}", t.render());
    let idle = run_tank_layer(LayerParams {
        op_period: None,
        ..base
    })
    .lease_cost()
    .maintenance_msgs;
    println!();
    println!("tank: one lease covers the whole cache. Its keep-alives come from clients whose");
    println!(
        "reads the cache serves; the 16 clients idle send {idle} in 120s ({} per client-minute),",
        f(idle as f64 / 16.0 / 2.0)
    );
    println!("whatever the cache size — see E6b.");
}
