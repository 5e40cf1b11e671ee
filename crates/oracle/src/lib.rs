//! # wishbone-oracle
//!
//! The differential oracles of the Wishbone partitioner — **dev-only**:
//! nothing in the facade's normal dependency graph depends on this crate
//! (`xtask lint`'s `oracle-dev-only` rule and a `cargo tree` CI step hold
//! that), so production compiles exactly one graph model, one §4.1 merge
//! and one encoder, all in `wishbone-core`.
//!
//! What lives here is the paper's *binary* world, which the
//! [`Deployment`](wishbone_core::Deployment) path replaced and is pinned
//! against, bit for bit (`f64::to_bits`), by the parity suites in the
//! workspace's `tests/`:
//!
//! * [`cost_graph`] — [`PartitionGraph`]: scalar vertex/edge weights for
//!   one node platform against an infinitely powerful server (§4);
//! * [`preprocess`](mod@preprocess) — the §4.1 merge on that graph, its
//!   k-tier reference [`preprocess_tiered_reference`] (the pre-rewrite
//!   `wishbone_core::preprocess_tiered`, pinned to the shipped one bit
//!   for bit), and [`tiered_from_binary`], the lift into a 2-tier
//!   [`TieredGraph`](wishbone_core::TieredGraph);
//! * [`encodings`] — the restricted (single-crossing) and general ILPs of
//!   §4.2.1 ([`encode`]);
//! * [`multitier`] — the standalone k-tier chain encoder
//!   ([`encode_multitier`]);
//! * [`baselines`] — all-node / all-server / greedy / local-search /
//!   exhaustive comparators over the binary graph.
//!
//! The crate calls only `wishbone-core`'s public API (`pin_analysis`,
//! `TierObjective`, `TieredGraph`) and shares no merge or encoder logic
//! with `preprocess_tiered` / `encode_deployment`: an oracle that runs the
//! code under test checks nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod cost_graph;
pub mod encodings;
pub mod multitier;
#[cfg(test)]
mod partitioner;
pub mod preprocess;
#[cfg(test)]
mod topology;

pub use baselines::{
    all_node, all_server, evaluate, exhaustive, greedy, local_search, pipeline_cutpoints,
    CutMetrics,
};
pub use cost_graph::{build_partition_graph, PEdge, PVertex, PartitionGraph};
pub use encodings::{encode, EncodedProblem, Encoding, ObjectiveConfig};
pub use multitier::{encode_multitier, EncodedMultiTier};
pub use preprocess::{
    preprocess, preprocess_tiered_reference, tiered_from_binary, PreprocessResult,
};
