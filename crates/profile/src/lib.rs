//! # wishbone-profile
//!
//! Profiling substrate for Wishbone: per-platform cost models
//! ([`Platform`], [`CycleCosts`], [`RadioModel`], and a platform's CPU
//! pricing constants as one [`CostRow`]) and the graph profiler
//! ([`profile`]) that executes a dataflow graph on sample traces and
//! reports per-operator CPU and per-edge bandwidth at a reference data
//! rate.
//!
//! The paper runs instrumented binaries on real motes, phones and
//! cycle-accurate simulators (§3). This crate substitutes metered execution
//! plus calibrated cycle tables; the calibration reproduces the relative
//! effects the paper's evaluation hinges on (missing FPUs, JVM overheads,
//! DVFS derating, radio bandwidth gaps).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod platform;
pub mod profiler;

pub use platform::{CostRow, CycleCosts, Platform, RadioModel};
pub use profiler::{
    profile, EdgeProfile, GraphProfile, OperatorProfile, ProfileError, SourceTrace,
};
