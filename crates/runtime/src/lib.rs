//! # wishbone-runtime
//!
//! Execution substrate for partitioned Wishbone programs:
//!
//! * [`TaskModel`] — the TinyOS cooperative task model with loop-boundary
//!   task splitting (paper §5.2);
//! * [`SiteExecutor`] — runs the operators placed at one site (a mote
//!   class, a gateway, the server) with the paper's state semantics
//!   (per-node instances for node-namespace operators wherever they run,
//!   §2.1.1), charges the task model where the site's OS has one, and
//!   stores-and-forwards traffic destined further downstream;
//! * [`simulate_deployment_tree`] — the one deployment simulator: a
//!   [`TreeTopology`] of leaf classes, gateways, and a server with one
//!   [`wishbone_net::Channel`] per tree edge, shared gateway CPU, and
//!   per-route goodput — the runtime mirror of `wishbone-core`'s
//!   `Deployment` partitioner. The paper's testbed behind Figures 9 and
//!   10 (N nodes feeding one congested channel, counting missed input
//!   events, dropped messages, and goodput) is [`TreeTopology::chain`]
//!   over two platforms with [`LeafRoute::chain`] as its route; longer
//!   chains add store-and-forward gateways;
//! * [`simulate_deployment_tree_traced`] — the same simulation under a
//!   seeded [`FailurePlan`] (mote battery deaths, gateway reboot windows,
//!   fading uplinks) with per-window outage accounting
//!   ([`OutageReport`]) and aggregate [`SimStats`] counters, emitting
//!   streaming [`wishbone_trace::TraceEvent`] telemetry through a
//!   [`wishbone_trace::TraceSink`] (zero-cost when off — the untraced
//!   entry point delegates here with an empty plan and the null sink),
//!   and [`attribute_tree`] — snailtrail-style ranked blame over a
//!   finished run, naming the site/link responsible for lost goodput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod deployment;
pub mod exec;
pub mod task;
pub mod tree;

pub use attribution::attribute_tree;
pub use deployment::{SimulationConfig, SourceFeed};
pub use exec::{Cascade, SiteExecutor};
pub use task::TaskModel;
pub use tree::{
    simulate_deployment_tree, simulate_deployment_tree_traced, Failure, FailurePlan,
    LeafFlowReport, LeafRoute, OutageReport, SimStats, TreeDeploymentReport, TreeTopology,
};
