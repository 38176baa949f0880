//! Storage Tank's lease cost measured on the full stack: the `tank` row of
//! E6, E7 and E8, in the units of the comparator miniature
//! ([`tank_baselines::lease_layer`]), so the rows sit in one table.
//!
//! The miniature's comparators turn every useful op into a server round
//! trip. Here a useful op is any file-system op that completed, and a read
//! or stat served from the client's cache counts too. That is the paper's
//! point: such a client is idle as far as the server can tell, so it sends
//! keep-alives. No cost can be charged elsewhere.

use tank_baselines::{LayerParams, LayerReport};
use tank_core::{LeaseAuthority, LeaseConfig};

use crate::workload::{Mix, UniformGen};
use crate::{Cluster, ClusterConfig, RunReport};

/// Run the miniature's cell `params` on a [`Cluster`]. Each cached object
/// is a precreated one-block file, `/f0 …`, and every client reads and
/// stats all of them through one uniform generator whose mean think time
/// is the op period (`None`: no workload, the clients only hold their
/// sessions). Reads take `SharedRead` locks, which never conflict, so no
/// demand traffic enters the lease cost.
pub fn run_tank_layer(params: LayerParams) -> RunReport {
    let mut cfg = ClusterConfig::default();
    cfg.clients = params.clients;
    cfg.files = params.objects_per_client;
    cfg.file_blocks = 1;
    cfg.lease = LeaseConfig::with_tau(params.tau);
    let block = cfg.block_size as u32;
    let mut cluster = Cluster::build(cfg, params.seed);
    if let Some(think_mean) = params.op_period {
        let mix = Mix {
            read_frac: 1.0,
            meta_frac: 0.2,
            io_size: block,
            max_offset: block as u64,
            think_mean,
        };
        for c in 0..params.clients {
            let gen = UniformGen::new(params.objects_per_client, mix);
            cluster.attach_workload(c, Box::new(gen));
        }
    }
    cluster.run_until(params.duration);
    cluster.finish()
}

/// The abstract's claim, checked on the tank cell `cell` measured with
/// `params`: the authority held no lease state and did no lease work, and
/// the clients sent no more keep-alives than the same clients send idle,
/// with the same τ, over the same time. Panics otherwise.
pub fn assert_no_lease_cost(params: LayerParams, cell: &LayerReport) {
    let idle = run_tank_layer(LayerParams {
        op_period: None,
        ..params
    })
    .lease_cost();
    assert!(
        cell.peak_lease_bytes == 0
            && cell.server_lease_ops == 0
            && cell.maintenance_msgs <= idle.maintenance_msgs,
        "{params:?}: tank paid a lease cost: {cell:?}; idle clients send {} keep-alives",
        idle.maintenance_msgs
    );
}

impl RunReport {
    /// This run's lease cost in the miniature's units: useful ops are the
    /// ops that completed, maintenance is the keep-alives, peak lease
    /// bytes are the authority's records at its peak, and lease server-ops
    /// are the standing checks made while it tracked any client.
    pub fn lease_cost(&self) -> LayerReport {
        LayerReport::new(
            self.check.ops_ok,
            self.msg.keepalives,
            LeaseAuthority::record_bytes(self.authority.peak_tracked),
            self.authority.tracked_checks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tank_client::fs::Script;
    use tank_client::FsOp;
    use tank_sim::{LocalNs, SimTime};

    fn params(objects: usize, op_period: Option<LocalNs>) -> LayerParams {
        LayerParams {
            clients: 4,
            objects_per_client: objects,
            op_period,
            tau: LocalNs::from_secs(2),
            duration: SimTime::from_secs(20),
            seed: 3,
        }
    }

    #[test]
    fn idle_clients_keep_alive_at_no_lease_cost() {
        let r = run_tank_layer(params(16, None)).lease_cost();
        assert!(r.maintenance_msgs > 0, "idle clients send keep-alives");
        assert_eq!((r.peak_lease_bytes, r.server_lease_ops), (0, 0));
    }

    #[test]
    fn cache_served_clients_send_no_more_keepalives_than_idle_ones() {
        // Eight files are soon all locked and cached: the clients go on
        // working but the server hears only their keep-alives.
        let p = params(8, Some(LocalNs::from_millis(100)));
        let r = run_tank_layer(p).lease_cost();
        assert!(r.useful_ops > 500, "ops flowed: {}", r.useful_ops);
        assert!(r.maintenance_msgs > 0, "cache hits do not renew the lease");
        assert_no_lease_cost(p, &r);
    }

    #[test]
    fn clients_that_reach_the_server_every_renewal_interval_send_no_keepalives() {
        // 256 files at one op per ≈ 50 ms: a client still meets a file it
        // holds no lock on well inside every 0.4 τ.
        let r = run_tank_layer(params(256, Some(LocalNs::from_millis(50)))).lease_cost();
        assert_eq!(
            (r.maintenance_msgs, r.peak_lease_bytes, r.server_lease_ops),
            (0, 0, 0)
        );
    }

    /// Negative control: a holder cut off on the control network while
    /// another client wants its lock makes the authority track it, and
    /// the conversion must see that.
    #[test]
    fn a_condemned_holder_shows_up_as_lease_bytes_and_server_ops() {
        let mut cfg = ClusterConfig::default();
        cfg.files = 1;
        cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
        let mut cluster = Cluster::build(cfg, 11);
        let write = |at_ms, byte| {
            Script::new().at(
                LocalNs::from_millis(at_ms),
                FsOp::Write {
                    path: "/f0".into(),
                    offset: 0,
                    data: vec![byte; 512],
                },
            )
        };
        cluster.attach_script(0, write(500, 1));
        cluster.attach_script(1, write(1_500, 2));
        cluster.isolate_control(0, SimTime::from_millis(1_000), None);
        cluster.run_until(SimTime::from_secs(10));
        let r = cluster.finish().lease_cost();
        assert!(r.peak_lease_bytes > 0, "the holder's record is lease state");
        assert!(r.server_lease_ops > 0, "checks against a tracked client");
    }
}
