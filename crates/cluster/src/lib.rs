//! Cluster façade: build whole Storage Tank worlds, drive workloads,
//! inject faults, harvest reports.
//!
//! This is the crate downstream users and every experiment binary go
//! through:
//!
//! ```
//! use tank_cluster::{Cluster, ClusterConfig};
//! use tank_cluster::workload::UniformGen;
//! use tank_sim::SimTime;
//!
//! let mut cfg = ClusterConfig::default();
//! cfg.clients = 2;
//! cfg.files = 4;
//! let mut cluster = Cluster::build(cfg, 42);
//! for c in 0..2 {
//!     cluster.attach_workload(c, Box::new(UniformGen::default_for(4)));
//! }
//! cluster.run_until(SimTime::from_secs(5));
//! let report = cluster.finish();
//! assert!(report.check.safe());
//! ```
//!
//! Fault injection speaks in client indices and wall-clock instants:
//! [`Cluster::isolate_control`] reproduces the paper's Figure 2 partition
//! (control network severed, SAN intact), [`Cluster::crash_client`] is a
//! fail-stop, and the recovery behaviour is chosen by
//! [`tank_server::RecoveryPolicy`] in the config.

pub mod build;
pub mod lease_cost;
pub mod report;
pub mod table;
pub mod workload;

pub use build::{Cluster, ClusterConfig};
pub use lease_cost::run_tank_layer;
pub use report::{MsgSummary, RunReport};
