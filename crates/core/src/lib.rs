//! # wishbone-core
//!
//! The Wishbone partitioner (NSDI 2009): given a profiled dataflow graph
//! and a platform model, compute the optimal split between the embedded
//! nodes and the server.
//!
//! Pipeline (paper §3–§4) — the one path [`topology::partition_deployment`]
//! runs; a [`topology::Deployment`] is a tree of sites (motes, gateways,
//! servers), and the paper's binary node/server cut and §9's mixed
//! networks ([`topology::Deployment::star`]) and hierarchies
//! ([`topology::Deployment::chain`]) are constructors of it, not separate
//! partitioners:
//!
//! 1. [`cost_graph::pin_analysis`] — derive placement constraints from
//!    operator metadata (§2.1.1) with single-crossing propagation (§2.1.2);
//! 2. per leaf root path, attach profiled CPU fractions (one per site
//!    platform) and on-air bandwidths (one per hop) as vertex/edge
//!    weights (§4) — into a flat per-operator table, never an unmerged
//!    graph; [`multitier::build_tiered_graph`] materialises that table;
//! 3. merge data-expanding/neutral operators downstream where no later
//!    site can charge for them, shrinking the ILP without losing
//!    optimality (§4.1) — one O(V + E) merge over the table, which
//!    [`multitier::preprocess_tiered`] runs on a built graph;
//! 4. [`encodings::encode_deployment`] — build the one ILP: monotone cuts
//!    per leaf class, coupled by one CPU row per site and one row per
//!    uplink (§4.2.1's restricted formulation at two sites);
//! 5. [`topology::PreparedDeployment`] — steps 1–4 happen once; every rate
//!    probe rescales the ILP in place and takes the closure relaxation's
//!    optimum where it fits every budget, else solves it by
//!    branch-and-bound seeded with the last placement or, once a search
//!    is stuck (a few node LPs with no incumbent, or its budget spent),
//!    the [`multilevel`] heuristic's cut, and
//!    [`topology::max_sustainable_rate_deployment`] searches rates per
//!    §4.3 on top of it, searching every probe that no refutation
//!    answers: neither the kept one (a budget row's floor over the
//!    closure, or a root LP's) nor a fresh floor of a row the closure
//!    breaks.
//!
//! The binary graph model, merge, encoders and baseline comparators this
//! path replaced live on as differential oracles in the dev-only
//! `wishbone-oracle` crate; nothing here depends on it. The workspace's
//! parity suites hold [`encodings::encode_deployment`] to them bit for
//! bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost_graph;
pub mod drift;
pub mod encodings;
pub mod multilevel;
pub mod multitier;
pub mod rate_search;
pub mod shape;
pub mod topology;

pub use cost_graph::{pin_analysis, Mode, Pin, PinError};
pub use drift::drift_to_deltas;
pub use encodings::{
    encode_deployment, DeploymentObjective, EncodedDeployment, LeafChain, TierObjective,
};
pub use multilevel::{approx_cut, ApproxCut};
pub use multitier::{
    build_tiered_graph, preprocess_tiered, LinkSpec, TEdge, TVertex, TieredGraph,
    TieredPreprocessResult, TopClasses,
};
pub use rate_search::UnprovenRate;
pub use shape::{deltas_between, shape_key, ShapeKey};
pub use topology::{
    max_sustainable_rate_deployment, partition_deployment, Deployment, DeploymentConfig,
    DeploymentDelta, DeploymentPartition, DeploymentRateResult, LeafGraphs, LeafPartition,
    PartitionError, PreparedDeployment, RobustnessMode, Site, SiteId,
};
