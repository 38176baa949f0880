//! The lease-maintenance-layer comparison world.
//!
//! One server, N clients, each client "caching" M objects. Clients issue
//! abstract useful operations (think metadata/lock requests) at a
//! configurable rate, and every one is a server round trip; each scheme
//! layers its own maintenance on top. The world measures three things per
//! scheme, the columns the abstract's claims are checked against:
//!
//! * maintenance messages (everything that is not a useful op/ack),
//! * peak lease-state bytes at the server,
//! * lease-related server operations (record updates + expiry scanning).

use std::collections::HashMap;

use rand::{Rng, RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use tank_sim::{
    Actor, ClockSpec, Ctx, LocalNs, NetId, NetParams, NodeId, Payload, SimTime, World, WorldConfig,
};

/// Which comparator lease scheme the layer runs. Storage Tank itself is
/// not one: its row is measured on the full stack (`tank-cluster`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Scheme {
    /// V-style: one lease per cached object, renewed individually.
    VLease,
    /// Frangipani-style: single lease, unconditional heartbeats, server
    /// lease table with expiry scanning.
    Heartbeat,
    /// NFS-style: no leases; per-object attribute polling.
    NfsPoll,
}

impl Scheme {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::VLease => "v-lease",
            Scheme::Heartbeat => "heartbeat",
            Scheme::NfsPoll => "nfs-poll",
        }
    }
}

/// Layer-world parameters.
#[derive(Debug, Clone, Copy)]
pub struct LayerParams {
    /// Number of clients.
    pub clients: usize,
    /// Cached objects per client.
    pub objects_per_client: usize,
    /// Mean think time between useful ops (`None` = idle client).
    pub op_period: Option<LocalNs>,
    /// Lease period τ (all schemes use the same base period; NFS uses it
    /// as the poll interval).
    pub tau: LocalNs,
    /// Virtual run duration.
    pub duration: SimTime,
    /// Seed.
    pub seed: u64,
}

impl Default for LayerParams {
    fn default() -> Self {
        LayerParams {
            clients: 8,
            objects_per_client: 64,
            op_period: Some(LocalNs::from_millis(50)),
            tau: LocalNs::from_secs(10),
            duration: SimTime::from_secs(60),
            seed: 1,
        }
    }
}

/// Measured outcome.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LayerReport {
    /// Useful operations completed.
    pub useful_ops: u64,
    /// Maintenance messages sent (client→server; the return traffic is
    /// symmetric and not counted).
    pub maintenance_msgs: u64,
    /// Peak lease-state bytes at the server.
    pub peak_lease_bytes: usize,
    /// Lease-related server operations (record updates + scan touches).
    pub server_lease_ops: u64,
    /// Maintenance messages per useful operation (the paper's headline
    /// ratio; ∞ when no useful ops ran).
    pub maint_per_op: f64,
}

impl LayerReport {
    /// A report from its four counts; derives the maintenance ratio.
    pub fn new(
        useful_ops: u64,
        maintenance_msgs: u64,
        peak_lease_bytes: usize,
        server_lease_ops: u64,
    ) -> LayerReport {
        LayerReport {
            useful_ops,
            maintenance_msgs,
            peak_lease_bytes,
            server_lease_ops,
            maint_per_op: if useful_ops > 0 {
                maintenance_msgs as f64 / useful_ops as f64
            } else {
                f64::INFINITY
            },
        }
    }
}

/// Wire messages of the layer world.
#[derive(Debug, Clone, PartialEq)]
enum LayerMsg {
    /// A useful operation (metadata/lock work).
    Op,
    /// Its acknowledgement.
    OpAck,
    /// V-lease renewal for one object (maintenance).
    RenewObj { obj: u32 },
    /// V-lease renewal ack.
    RenewAck { obj: u32 },
    /// Heartbeat (maintenance).
    Heartbeat,
    /// Heartbeat ack.
    HeartbeatAck,
    /// NFS attribute poll for one object (maintenance).
    Poll { obj: u32 },
    /// Poll answer.
    PollAck { obj: u32 },
}

impl Payload for LayerMsg {
    fn kind(&self) -> &'static str {
        match self {
            LayerMsg::Op => "op",
            LayerMsg::OpAck => "op_ack",
            LayerMsg::RenewObj { .. } => "renew_obj",
            LayerMsg::RenewAck { .. } => "renew_ack",
            LayerMsg::Heartbeat => "heartbeat",
            LayerMsg::HeartbeatAck => "heartbeat_ack",
            LayerMsg::Poll { .. } => "poll",
            LayerMsg::PollAck { .. } => "poll_ack",
        }
    }

    fn size_hint(&self) -> usize {
        24
    }
}

/// Timer tokens (small fixed space; no TokenMap needed).
const T_OP: u64 = 1;
const T_MAINT: u64 = 2;

/// A layer client.
struct LayerClient {
    scheme: Scheme,
    server: NodeId,
    objects: u32,
    op_period: Option<LocalNs>,
    tau: LocalNs,
    /// V-lease: local last-renewal time per object.
    v_last: Vec<LocalNs>,
}

impl LayerClient {
    fn new(scheme: Scheme, server: NodeId, params: &LayerParams) -> Self {
        LayerClient {
            scheme,
            server,
            objects: params.objects_per_client as u32,
            op_period: params.op_period,
            tau: params.tau,
            v_last: vec![LocalNs(0); params.objects_per_client],
        }
    }

    fn think(&self, rng: &mut ChaCha8Rng) -> Option<LocalNs> {
        self.op_period
            .map(|p| LocalNs(rng.random_range(0..=p.0 * 2)))
    }

    fn send_op(&mut self, ctx: &mut Ctx<'_, LayerMsg, ()>) {
        // Ops touch a random object: under V, this renews that object's
        // lease for free (the reply re-grants it), mirroring how V piggy-
        // backs renewal on use.
        if self.scheme == Scheme::VLease {
            let obj = ctx.rng().random_range(0..self.objects) as usize;
            self.v_last[obj] = ctx.now();
        }
        ctx.send(NetId::CONTROL, self.server, LayerMsg::Op);
    }
}

impl Actor<LayerMsg, ()> for LayerClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, LayerMsg, ()>) {
        if let Some(d) = self.think(ctx.rng()) {
            ctx.set_timer(d, T_OP);
        }
        // Scheme maintenance clocks.
        match self.scheme {
            Scheme::VLease => {
                // Check object ages at τ/10 granularity.
                ctx.set_timer(LocalNs(self.tau.0 / 10), T_MAINT);
            }
            Scheme::Heartbeat => {
                ctx.set_timer(LocalNs(self.tau.0 / 3), T_MAINT);
            }
            Scheme::NfsPoll => {
                ctx.set_timer(LocalNs(self.tau.0 / 10), T_MAINT);
            }
        }
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        _net: NetId,
        msg: LayerMsg,
        _ctx: &mut Ctx<'_, LayerMsg, ()>,
    ) {
        match msg {
            LayerMsg::OpAck
            | LayerMsg::RenewAck { .. }
            | LayerMsg::HeartbeatAck
            | LayerMsg::PollAck { .. } => {}
            other => debug_assert!(false, "client got {other:?}"),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, LayerMsg, ()>) {
        match token {
            T_OP => {
                self.send_op(ctx);
                if let Some(d) = self.think(ctx.rng()) {
                    ctx.set_timer(d, T_OP);
                }
            }
            T_MAINT => match self.scheme {
                Scheme::VLease => {
                    // Renew every object older than 0.7τ (it would expire
                    // before the next check otherwise).
                    let now = ctx.now();
                    let threshold = (self.tau.0 as f64 * 0.7) as u64;
                    for obj in 0..self.objects {
                        let age = now.0.saturating_sub(self.v_last[obj as usize].0);
                        if age >= threshold {
                            self.v_last[obj as usize] = now;
                            ctx.send(NetId::CONTROL, self.server, LayerMsg::RenewObj { obj });
                        }
                    }
                    ctx.set_timer(LocalNs(self.tau.0 / 10), T_MAINT);
                }
                Scheme::Heartbeat => {
                    ctx.send(NetId::CONTROL, self.server, LayerMsg::Heartbeat);
                    ctx.set_timer(LocalNs(self.tau.0 / 3), T_MAINT);
                }
                Scheme::NfsPoll => {
                    // NFS re-validates each cached object once per τ,
                    // spread over the period in τ/10 slices.
                    let slice = (self.objects as u64 / 10).max(1) as u32;
                    let base = ctx.rng().random_range(0..self.objects.max(1));
                    for k in 0..slice.min(self.objects) {
                        let obj = (base + k) % self.objects;
                        ctx.send(NetId::CONTROL, self.server, LayerMsg::Poll { obj });
                    }
                    ctx.set_timer(LocalNs(self.tau.0 / 10), T_MAINT);
                }
            },
            _ => {}
        }
    }
}

/// The layer server.
struct LayerServer {
    scheme: Scheme,
    tau: LocalNs,
    /// V: (client, object) → expiry.
    v_table: HashMap<(NodeId, u32), LocalNs>,
    /// Heartbeat: client → expiry.
    hb_table: HashMap<NodeId, LocalNs>,
    lease_ops: u64,
    peak_bytes: usize,
    useful_ops: u64,
}

impl LayerServer {
    fn new(scheme: Scheme, params: &LayerParams) -> Self {
        LayerServer {
            scheme,
            tau: params.tau,
            v_table: HashMap::new(),
            hb_table: HashMap::new(),
            lease_ops: 0,
            peak_bytes: 0,
            useful_ops: 0,
        }
    }

    fn lease_bytes(&self) -> usize {
        match self.scheme {
            Scheme::VLease => self.v_table.len() * (std::mem::size_of::<(NodeId, u32)>() + 8),
            Scheme::Heartbeat => self.hb_table.len() * (std::mem::size_of::<NodeId>() + 8),
            Scheme::NfsPoll => 0,
        }
    }

    fn note_peak(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.lease_bytes());
    }
}

impl Actor<LayerMsg, ()> for LayerServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, LayerMsg, ()>) {
        // Expiry scanning for the stateful schemes.
        match self.scheme {
            Scheme::VLease => {
                ctx.set_timer(self.tau, T_MAINT);
            }
            Scheme::Heartbeat => {
                ctx.set_timer(LocalNs(self.tau.0 / 3), T_MAINT);
            }
            _ => {}
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        net: NetId,
        msg: LayerMsg,
        ctx: &mut Ctx<'_, LayerMsg, ()>,
    ) {
        let now = ctx.now();
        match msg {
            LayerMsg::Op => {
                self.useful_ops += 1;
                if self.scheme == Scheme::VLease {
                    // The reply re-grants the touched object's lease; the
                    // server updates that record. (Object identity rides
                    // out of band here; one record update is the cost.)
                    self.lease_ops += 1;
                }
                ctx.send(net, from, LayerMsg::OpAck);
            }
            LayerMsg::RenewObj { obj } => {
                self.lease_ops += 1;
                self.v_table.insert((from, obj), now.plus(self.tau));
                self.note_peak();
                ctx.send(net, from, LayerMsg::RenewAck { obj });
            }
            LayerMsg::Heartbeat => {
                self.lease_ops += 1;
                self.hb_table.insert(from, now.plus(self.tau));
                self.note_peak();
                ctx.send(net, from, LayerMsg::HeartbeatAck);
            }
            LayerMsg::Poll { obj } => {
                // An attribute fetch: server work but no lease state.
                ctx.send(net, from, LayerMsg::PollAck { obj });
            }
            other => debug_assert!(false, "server got {other:?}"),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, LayerMsg, ()>) {
        if token != T_MAINT {
            return;
        }
        let now = ctx.now();
        match self.scheme {
            Scheme::VLease => {
                // Expiry scan: every record is touched.
                self.lease_ops += self.v_table.len() as u64;
                self.v_table.retain(|_, exp| *exp > now);
                ctx.set_timer(self.tau, T_MAINT);
            }
            Scheme::Heartbeat => {
                self.lease_ops += self.hb_table.len() as u64;
                self.hb_table.retain(|_, exp| *exp > now);
                ctx.set_timer(LocalNs(self.tau.0 / 3), T_MAINT);
            }
            Scheme::NfsPoll => {}
        }
    }
}

/// Run one lease-layer world and report.
pub fn run_lease_layer(scheme: Scheme, params: LayerParams) -> LayerReport {
    let mut world: World<LayerMsg> = World::new(WorldConfig {
        seed: params.seed,
        record_trace: false,
        record_causal: false,
    });
    world.add_network(NetId::CONTROL, NetParams::default());
    let server = world.add_node(
        Box::new(LayerServer::new(scheme, &params)),
        ClockSpec::ideal(),
    );
    let mut rate_rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0xBA5E);
    for _ in 0..params.clients {
        let rate = rate_rng.random_range(0.9995..1.0005);
        world.add_node(
            Box::new(LayerClient::new(scheme, server, &params)),
            ClockSpec {
                rate,
                offset_ns: rate_rng.next_u64() % 1_000_000_000,
            },
        );
    }
    world.run_until(params.duration);

    let stats = world.stats();
    let maintenance = stats.sent_kind("renew_obj", NetId::CONTROL)
        + stats.sent_kind("heartbeat", NetId::CONTROL)
        + stats.sent_kind("poll", NetId::CONTROL);
    let srv = world.node_ref::<LayerServer>(server).unwrap();
    LayerReport::new(
        srv.useful_ops,
        maintenance,
        srv.peak_bytes.max(srv.lease_bytes()),
        srv.lease_ops,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LayerParams {
        LayerParams {
            clients: 4,
            objects_per_client: 32,
            op_period: Some(LocalNs::from_millis(50)),
            tau: LocalNs::from_secs(5),
            duration: SimTime::from_secs(30),
            seed: 3,
        }
    }

    #[test]
    fn v_lease_maintenance_scales_with_objects() {
        let small = run_lease_layer(
            Scheme::VLease,
            LayerParams {
                objects_per_client: 16,
                ..params()
            },
        );
        let big = run_lease_layer(
            Scheme::VLease,
            LayerParams {
                objects_per_client: 128,
                ..params()
            },
        );
        assert!(
            big.maintenance_msgs > 3 * small.maintenance_msgs,
            "per-object renewal grows with the cache: {} vs {}",
            small.maintenance_msgs,
            big.maintenance_msgs
        );
        assert!(big.peak_lease_bytes > small.peak_lease_bytes);
        assert!(big.server_lease_ops > 0);
    }

    #[test]
    fn heartbeat_maintenance_is_constant_per_client_and_stateful() {
        let r = run_lease_layer(Scheme::Heartbeat, params());
        // 4 clients × (30s / (5s/3)) ≈ 72 heartbeats.
        assert!(
            (50..120).contains(&r.maintenance_msgs),
            "{}",
            r.maintenance_msgs
        );
        assert!(r.peak_lease_bytes > 0, "server tracks every client");
        assert!(r.server_lease_ops > 0, "scans and updates cost work");
        // But it does NOT scale with objects.
        let big = run_lease_layer(
            Scheme::Heartbeat,
            LayerParams {
                objects_per_client: 1024,
                ..params()
            },
        );
        assert_eq!(big.maintenance_msgs, r.maintenance_msgs);
    }

    #[test]
    fn nfs_polling_scales_with_objects_and_proves_the_point() {
        let r = run_lease_layer(Scheme::NfsPoll, params());
        assert!(
            r.maintenance_msgs > 500,
            "polling is chatty: {}",
            r.maintenance_msgs
        );
        assert_eq!(r.peak_lease_bytes, 0);
    }
}
