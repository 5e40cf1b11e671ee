//! # wishbone-dataflow
//!
//! The stream-operator dataflow graph model underlying Wishbone
//! (NSDI 2009). A program is a DAG whose vertices are operators — each a
//! work function plus optional private state — and whose edges are streams
//! (§2 of the paper). This crate provides:
//!
//! * [`Value`]: dynamic stream elements with wire-size accounting,
//! * [`Graph`] / [`GraphBuilder`]: graph construction, validation,
//!   topological order, reachability, and a content [`Fingerprint`],
//! * [`WorkFn`] / [`ExecCtx`]: metered work-function execution — operators
//!   run their real computation while counting abstract machine operations
//!   ([`Meter`], [`OpCounts`]), replacing the paper's on-device profiler,
//! * [`dot`]: the GraphViz visualization the Wishbone compiler emits.
//!
//! Higher layers build on this: `wishbone-dsp` supplies operator
//! implementations, `wishbone-profile` turns op counts into per-platform
//! cycle costs, and `wishbone-core` partitions the graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dot;
pub mod fingerprint;
pub mod graph;
pub mod meter;
pub mod value;

pub use builder::{FnWork, GraphBuilder, StreamRef, ZipWork};
pub use fingerprint::Fingerprint;
pub use graph::{
    Edge, EdgeId, ExecCtx, Graph, GraphError, IdentityWork, Namespace, OperatorId, OperatorKind,
    OperatorSpec, WorkFn,
};
pub use meter::{Meter, OpClass, OpCounts, OP_CLASSES};
pub use value::Value;
