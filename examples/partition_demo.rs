//! Figure 2, narrated: a control-network partition strands a lock-holding
//! client; the lease protocol times it out safely and hands the file over.
//!
//! ```sh
//! cargo run --example partition_demo
//! ```

use tank_client::fs::Script;
use tank_client::FsOp;
use tank_cluster::{Cluster, ClusterConfig};
use tank_consistency::Event;
use tank_core::LeaseConfig;
use tank_server::RecoveryPolicy;
use tank_sim::{LocalNs, SimTime};

const BS: usize = 512;

fn main() {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.files = 1;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2)); // τ = 2s
    cfg.lease.epsilon = 0.01;
    cfg.policy = RecoveryPolicy::LeaseFence;
    let mut cluster = Cluster::build(cfg, 7);

    let ms = LocalNs::from_millis;
    // C0 grabs the exclusive lock and dirties its cache...
    cluster.attach_script(
        0,
        Script::new()
            .at(
                ms(500),
                FsOp::Write {
                    path: "/f0".into(),
                    offset: 0,
                    data: vec![0xAA; BS],
                },
            )
            // ...and while isolated, its local processes are *refused*
            // (phase 3) instead of being fed stale cache:
            .at(
                ms(3_000),
                FsOp::Read {
                    path: "/f0".into(),
                    offset: 0,
                    len: 16,
                },
            ),
    );
    // C1 wants the same file mid-partition.
    cluster.attach_script(
        1,
        Script::new()
            .at(
                ms(1_500),
                FsOp::Write {
                    path: "/f0".into(),
                    offset: 0,
                    data: vec![0xBB; BS],
                },
            )
            .at(
                ms(8_000),
                FsOp::Read {
                    path: "/f0".into(),
                    offset: 0,
                    len: 16,
                },
            ),
    );

    println!("t=1.0s: control network partitions C0 from the server (SAN stays up)");
    cluster.isolate_control(
        0,
        SimTime::from_millis(1_000),
        Some(SimTime::from_millis(12_000)),
    );
    println!("t=12s:  partition heals\n");
    cluster.run_until(SimTime::from_secs(16));

    println!("protocol timeline (true time):");
    for (t, node, ev) in cluster.world.observations() {
        let line = match ev {
            Event::LockGranted { client, ino, mode, .. } => {
                Some(format!("{client} granted {mode} lock on {ino}"))
            }
            Event::Quiesced { shard } => Some(format!(
                "{node} quiesced shard {shard} (phase 3: stops serving)"
            )),
            Event::CacheInvalidated { discarded_dirty, .. } => Some(format!(
                "{node} lease expired locally: cache invalidated ({discarded_dirty} dirty blocks lost)"
            )),
            Event::DeliveryError { client } => {
                Some(format!("server: delivery error for {client} → τ(1+ε) timer armed"))
            }
            Event::LeaseExpired { client } => {
                Some(format!("server: lease of {client} expired"))
            }
            Event::Fenced { client } => Some(format!("server: {client} fenced at every disk")),
            Event::LockStolen { client, ino, .. } => {
                Some(format!("server: stole {client}'s lock on {ino}"))
            }
            Event::NewSession { client } => Some(format!("server: new session for {client}")),
            Event::Resumed { shard } => Some(format!("{node} serving shard {shard} again")),
            Event::OpCompleted { kind, ok, err, .. } => match err {
                Some(e) => Some(format!("{node} op {kind} → refused ({e:?})")),
                None if *ok => Some(format!("{node} op {kind} → ok")),
                None => None,
            },
            _ => None,
        };
        if let Some(line) = line {
            println!("  {t}  {line}");
        }
    }

    let report = cluster.finish();
    println!();
    println!(
        "audit: {} lost updates, {} stale reads, {} order violations → {}",
        report.check.lost_updates.len(),
        report.check.stale_reads.len(),
        report.check.write_order_violations.len(),
        if report.check.safe() {
            "SAFE"
        } else {
            "VIOLATED"
        }
    );
    assert!(report.check.safe());
}
