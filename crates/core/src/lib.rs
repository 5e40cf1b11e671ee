//! # wishbone-core
//!
//! The Wishbone partitioner (NSDI 2009): given a profiled dataflow graph
//! and a platform model, compute the optimal split between the embedded
//! nodes and the server.
//!
//! Pipeline (paper §3–§4):
//!
//! 1. [`cost_graph::pin_analysis`] — derive placement constraints from
//!    operator metadata (§2.1.1) with single-crossing propagation (§2.1.2);
//! 2. [`cost_graph::build_partition_graph`] — attach profiled CPU
//!    fractions and on-air bandwidths as vertex/edge weights (§4);
//! 3. [`preprocess::preprocess`] — merge data-expanding/neutral operators
//!    downstream, shrinking the ILP without losing optimality (§4.1);
//! 4. [`encodings::encode`] — build the restricted (single-crossing) or
//!    general ILP (§4.2.1);
//! 5. [`topology`] — one [`topology::Deployment`] path from there on: a
//!    tree of sites (motes, gateways, servers) is prepared once
//!    ([`topology::PreparedDeployment`]), solved by branch-and-bound or
//!    the [`multilevel`] heuristic ([`topology::partition_deployment`]),
//!    and rate-searched per §4.3
//!    ([`topology::max_sustainable_rate_deployment`]). The paper's binary
//!    node/server cut and §9's mixed networks are
//!    [`topology::Deployment::star`]; §9's hierarchies are
//!    [`topology::Deployment::chain`] — constructors, not separate
//!    partitioners;
//! 6. [`baselines`] — all-node / all-server / greedy / local-search /
//!    exhaustive comparators;
//! 7. [`audit`] — a static-analysis bridge: every encoder's output is
//!    checked against its implied [`wishbone_audit::ModelSpec`] under
//!    `debug_assertions`, so the whole test suite doubles as an audit
//!    corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod baselines;
pub mod cost_graph;
pub mod drift;
pub mod encodings;
pub mod multilevel;
pub mod multitier;
pub mod partitioner;
pub mod preprocess;
pub mod rate_search;
pub mod shape;
pub mod topology;

pub use audit::{
    audit_binary, audit_deployment, audit_multitier, binary_spec, deployment_spec, multitier_spec,
};
pub use baselines::{
    all_node, all_server, evaluate, exhaustive, greedy, local_search, pipeline_cutpoints,
    CutMetrics,
};
pub use cost_graph::{
    build_partition_graph, pin_analysis, Mode, PEdge, PVertex, PartitionGraph, Pin, PinError,
};
pub use drift::drift_to_deltas;
pub use encodings::{
    encode, encode_deployment, encode_multitier, DeploymentObjective, EncodedDeployment,
    EncodedMultiTier, EncodedProblem, Encoding, LeafChain, ObjectiveConfig, TierObjective,
};
pub use multilevel::{approx_cut, ApproxCut};
pub use multitier::{
    build_tiered_graph, preprocess_tiered, LinkSpec, TEdge, TVertex, TieredGraph,
    TieredPreprocessResult,
};
pub use partitioner::PartitionError;
pub use preprocess::{preprocess, PreprocessResult};
pub use rate_search::UnprovenRate;
pub use shape::{deltas_between, differing_sites, shape_key, ShapeKey};
pub use topology::{
    max_sustainable_rate_deployment, partition_deployment, Deployment, DeploymentConfig,
    DeploymentDelta, DeploymentPartition, DeploymentRateResult, LeafPartition, PlacementEngine,
    PreparedDeployment, RobustnessMode, Site, SiteId,
};
