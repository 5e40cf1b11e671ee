//! # Wishbone
//!
//! A from-scratch Rust reproduction of **"Wishbone: Profile-based
//! Partitioning for Sensornet Applications"** (Newton, Toledo, Girod,
//! Balakrishnan, Madden — NSDI 2009).
//!
//! Wishbone takes a dataflow graph of stream operators, profiles every
//! operator on sample data for each target platform, and solves an integer
//! linear program to split the graph between resource-limited embedded
//! nodes and a backend server — minimizing `α·CPU + β·NET` under hard CPU
//! and radio budgets, and binary-searching the input data rate when
//! nothing fits.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dataflow`] | `wishbone-dataflow` | operator graphs, metered work functions |
//! | [`dsp`] | `wishbone-dsp` | FFT / FIR / mel / DCT kernels + operators |
//! | [`ilp`] | `wishbone-ilp` | sparse revised simplex + branch and bound (a dense tableau kept as the tests' reference) |
//! | [`profile`] | `wishbone-profile` | platform cost models, graph profiler |
//! | [`net`] | `wishbone-net` | shared-channel radio simulator |
//! | [`runtime`] | `wishbone-runtime` | TinyOS-style executors, the tree deployment simulator |
//! | [`core`] | `wishbone-core` | the partitioner itself: one `Deployment` path |
//! | [`apps`] | `wishbone-apps` | speech-MFCC and EEG applications |
//! | [`audit`] | `wishbone-audit` | static analyzer for encoded ILPs |
//! | [`trace`] | `wishbone-trace` | streaming telemetry, drift detection, loss attribution |
//! | [`fleet`] | `wishbone-fleet` | sharded, shape-cached fleet partitioning service |
//!
//! (The paper's binary graph model, merge, encoders and baseline
//! comparators — the differential oracles `core`'s one encoder is pinned
//! against — are the dev-only `wishbone-oracle` crate: a
//! `[dev-dependencies]` entry here, re-exported nowhere.)
//!
//! ## Quickstart
//!
//! ```
//! use wishbone::prelude::*;
//!
//! // Build the paper's speech-detection pipeline and profile it.
//! let app = build_speech_app(SpeechParams::default());
//! let trace = app.trace(40, 1);
//! let prof = profile(&app.graph, &[trace]).unwrap();
//!
//! // Partition it for a TMote Sky at 1/8 of the full 8 kHz rate: the
//! // paper's node/server split is a one-leaf star under the server.
//! let mote = Platform::tmote_sky();
//! let dep = Deployment::star([(Site::new("mote", &mote), LinkSpec::for_platform(&mote))]);
//! let cfg = DeploymentConfig::default().at_rate(0.125);
//! let part = partition_deployment(&app.graph, &prof, &dep, &cfg).unwrap();
//! let on_mote = &part.leaves[0];
//! assert!(on_mote.site_ops[0].contains(&app.source));
//! assert!(on_mote.predicted_cpu[0] <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wishbone_apps as apps;
pub use wishbone_audit as audit;
pub use wishbone_core as core;
pub use wishbone_dataflow as dataflow;
pub use wishbone_dsp as dsp;
pub use wishbone_fleet as fleet;
pub use wishbone_ilp as ilp;
pub use wishbone_net as net;
pub use wishbone_profile as profile;
pub use wishbone_runtime as runtime;
pub use wishbone_trace as trace;

/// The names most programs need, re-exported flat.
pub mod prelude {
    pub use crate::{report_deployment_stats, report_stats};
    pub use wishbone_apps::{
        build_eeg_app, build_eeg_channel, build_speech_app, heuristic_svm, EegApp, EegParams,
        LinearSvm, SpeechApp, SpeechParams,
    };
    pub use wishbone_audit::{AuditCode, AuditReport, Diagnostic, Severity};
    pub use wishbone_core::{deltas_between, shape_key, ShapeKey};
    pub use wishbone_core::{
        drift_to_deltas, max_sustainable_rate_deployment, partition_deployment, pin_analysis,
        ApproxCut, Deployment, DeploymentConfig, DeploymentDelta, DeploymentPartition,
        DeploymentRateResult, LeafPartition, LinkSpec, Mode, PartitionError, Pin,
        PreparedDeployment, RobustnessMode, Site, SiteId, UnprovenRate,
    };
    pub use wishbone_dataflow::{
        Graph, GraphBuilder, Namespace, OperatorId, OperatorKind, OperatorSpec, Value, WorkFn,
    };
    pub use wishbone_fleet::{
        run_batch, FleetRequest, FleetResponse, FleetServer, FleetStats, ShapeCache,
    };
    pub use wishbone_ilp::{IlpOptions, PhaseTimes, Problem, Sense, SolverBackend};
    pub use wishbone_net::{profile_network, Channel, ChannelParams, PacketFormat};
    pub use wishbone_profile::{profile, GraphProfile, Platform, SourceTrace};
    pub use wishbone_runtime::{
        attribute_tree, simulate_deployment_tree, simulate_deployment_tree_traced, Failure,
        FailurePlan, LeafFlowReport, LeafRoute, OutageReport, SimStats, SimulationConfig,
        SourceFeed, TaskModel, TreeDeploymentReport, TreeTopology,
    };
    pub use wishbone_trace::{
        AttributionReport, Blame, DriftConfig, DriftDetector, DriftReport, EdgeDrift, EdgeEstimate,
        LiveProfile, LossCause, MemorySink, NullSink, OperatorDrift, OperatorEstimate, TraceEvent,
        TraceSink,
    };
}

/// One consistent solver-statistics line for the examples: how many
/// branch-and-bound nodes the search took, the warm/cold node-LP split,
/// the simplex work behind them (dual and primal iterations, LU
/// factorizations), and where the wall clock went phase by phase. The one-time encode is not a solve phase: a prepared
/// instance reports it as `encode_seconds()`. `root LP` is the part of
/// `nodes` spent in the first LP.
pub fn report_stats(stats: &ilp::IlpStats) -> String {
    format!(
        "{} B&B nodes ({} warm / {} cold LPs; {} dual + {} primal iterations, \
         {} factorizations); phases: presolve {:.1}ms, warm-start {:.1}ms, \
         nodes {:.1}ms (root LP {:.1}ms)",
        stats.nodes,
        stats.warm_starts,
        stats.cold_starts,
        stats.dual_iterations,
        stats.primal_iterations,
        stats.refactorizations,
        stats.phase_times.presolve_s * 1e3,
        stats.phase_times.warm_start_s * 1e3,
        stats.phase_times.nodes_s * 1e3,
        stats.phase_times.root_lp_s * 1e3,
    )
}

/// One consistent simulation report for the examples: what the tree
/// simulator offered, processed, and delivered, and where the rest went
/// (channel contention, relay saturation, failure outages); then every
/// site's busy fraction, saturation drops, and outage-attributed drops,
/// rendered uniformly (zeros included, so failure-free runs and failure
/// replays line up column for column), plus each non-root site's uplink
/// load, delivery ratio, and fade drops. Pinned by
/// `tests/observability.rs`.
pub fn report_deployment_stats(
    report: &runtime::TreeDeploymentReport,
    topo: &runtime::TreeTopology,
) -> String {
    let stats = report.stats();
    let mut out = format!(
        "{} events offered / {} processed; {} elements sent, {} lost on-air, \
         {} saturation-dropped, {} outage-dropped, {} reached the sink",
        stats.events_offered,
        stats.events_processed,
        stats.elements_sent,
        stats.channel_lost,
        stats.saturation_dropped,
        stats.outage_dropped,
        stats.sink_arrivals
    );
    for s in 0..topo.len() {
        out.push_str(&format!(
            "\nsite {s}: busy {:5.1}%, saturation-dropped {}, outage-dropped {}",
            report.site_cpu_utilization[s] * 100.0,
            report.site_elements_dropped[s],
            report.site_outage_dropped[s],
        ));
        if let Some(parent) = topo.parent[s] {
            out.push_str(&format!(
                "; uplink {s}->{parent}: {:.1} B/s offered, {:5.1}% delivered, fade-dropped {}",
                report.edge_offered_load_bytes_per_sec[s],
                report.edge_packet_delivery_ratio[s] * 100.0,
                report.edge_outage_dropped[s],
            ));
        }
    }
    out
}
