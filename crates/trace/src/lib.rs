//! # wishbone-trace
//!
//! Streaming observability for Wishbone deployments: structured
//! [`TraceEvent`]s emitted by the runtime simulators behind a
//! zero-cost-when-off [`TraceSink`], an online [`LiveProfile`]
//! accumulator with a [`DriftDetector`] that compares observed behavior
//! against the [`GraphProfile`](wishbone_profile::GraphProfile) a
//! standing cut was solved against, and snailtrail-style critical-path
//! attribution ([`AttributionReport`]) that names the site/link/operator
//! responsible for lost goodput.
//!
//! The off path is the unit value [`NullSink`]: `enabled()` is `false`, every
//! `record` is a no-op, and instrumented code gates event construction on
//! `enabled()` so a traced run with the null sink is byte-identical to —
//! and within measurement noise of — an untraced run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod live;
mod sink;

pub use attribution::{AttributionReport, Blame, LossCause};
pub use live::{
    DriftConfig, DriftDetector, DriftReport, EdgeDrift, EdgeEstimate, LiveProfile, OperatorDrift,
    OperatorEstimate,
};
pub use sink::{MemorySink, NullSink, TraceEvent, TraceSink};
