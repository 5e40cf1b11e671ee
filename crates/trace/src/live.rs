//! Online profile accumulation and drift detection.
//!
//! A [`LiveProfile`] folds a stream of [`TraceEvent`]s into per-site,
//! per-operator CPU and per-edge element-size estimates (EWMA + count). A
//! [`DriftDetector`] snapshots the expectations implied by the
//! [`GraphProfile`](wishbone_profile::GraphProfile) a standing cut was
//! solved against, each site's on that site's platform, and flags
//! operators/edges whose live estimate leaves a configurable relative
//! band — the signal that the cut should be re-solved (warm, via the
//! in-place rescale path).

use std::fmt;

use wishbone_dataflow::{EdgeId, OperatorId};
use wishbone_profile::{GraphProfile, Platform};

use crate::sink::{TraceEvent, TraceSink};

/// Streaming estimate of one operator's per-invocation CPU cost at one
/// site.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OperatorEstimate {
    /// Number of cost samples folded in.
    pub samples: u64,
    /// EWMA of the per-invocation profile price on the site's platform
    /// ([`TraceEvent::OperatorCost`]'s `profile_s`), seconds.
    pub ewma_cpu_s: f64,
}

/// Streaming estimate of one edge's element size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EdgeEstimate {
    /// Elements offered to the edge.
    pub samples: u64,
    /// EWMA of the marshalled element size, bytes.
    pub ewma_bytes: f64,
}

/// An online profile accumulated from a live event stream.
///
/// `LiveProfile` is itself a [`TraceSink`], so it can be handed straight
/// to a traced simulation; it also exposes [`observe`](Self::observe) /
/// [`fold`](Self::fold) for replaying a buffered
/// [`MemorySink`](crate::MemorySink).
///
/// Operator estimates are keyed by `(site, operator)`: a CPU sample is
/// the invocation's profile price on the platform of the site that ran
/// it, so one operator hosted on two tiers keeps two estimates, each
/// comparable to its own site's expectation. Edge estimates are keyed by
/// edge alone (a marshalled size does not depend on the platform).
#[derive(Debug, Clone)]
pub struct LiveProfile {
    alpha: f64,
    /// `ops[site][op]`.
    ops: Vec<Vec<OperatorEstimate>>,
    edges: Vec<EdgeEstimate>,
}

impl LiveProfile {
    /// A fresh profile. `alpha` is the EWMA weight of the newest sample
    /// (`0 < alpha <= 1`); 1 means "latest sample only", small values
    /// smooth harder and react slower.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
        LiveProfile {
            alpha,
            ops: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Fold one event in. Only [`TraceEvent::OperatorCost`] and
    /// [`TraceEvent::EdgeElement`] carry samples; other events are
    /// ignored.
    pub fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::OperatorCost {
                site,
                op,
                profile_s,
                ..
            } => {
                if self.ops.len() <= *site {
                    self.ops.resize(site + 1, Vec::new());
                }
                let site_ops = &mut self.ops[*site];
                if site_ops.len() <= op.0 {
                    site_ops.resize(op.0 + 1, OperatorEstimate::default());
                }
                let e = &mut site_ops[op.0];
                e.ewma_cpu_s = if e.samples == 0 {
                    *profile_s
                } else {
                    self.alpha * profile_s + (1.0 - self.alpha) * e.ewma_cpu_s
                };
                e.samples += 1;
            }
            TraceEvent::EdgeElement {
                edge, wire_bytes, ..
            } => {
                if self.edges.len() <= edge.0 {
                    self.edges.resize(edge.0 + 1, EdgeEstimate::default());
                }
                let e = &mut self.edges[edge.0];
                let bytes = *wire_bytes as f64;
                e.ewma_bytes = if e.samples == 0 {
                    bytes
                } else {
                    self.alpha * bytes + (1.0 - self.alpha) * e.ewma_bytes
                };
                e.samples += 1;
            }
            _ => {}
        }
    }

    /// Replay a batch of events (e.g. a drained
    /// [`MemorySink`](crate::MemorySink)).
    pub fn fold<'a>(&mut self, events: impl IntoIterator<Item = &'a TraceEvent>) {
        for e in events {
            self.observe(e);
        }
    }

    /// The estimate for one operator at one site, if any sample arrived.
    pub fn operator(&self, site: usize, op: OperatorId) -> Option<&OperatorEstimate> {
        self.ops
            .get(site)
            .and_then(|ops| ops.get(op.0))
            .filter(|e| e.samples > 0)
    }

    /// The estimate for one edge, if any element was offered.
    pub fn edge(&self, edge: EdgeId) -> Option<&EdgeEstimate> {
        self.edges.get(edge.0).filter(|e| e.samples > 0)
    }
}

impl TraceSink for LiveProfile {
    fn record(&mut self, event: TraceEvent) {
        self.observe(&event);
    }
}

/// Sensitivity of a [`DriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Relative band an estimate may leave before it is flagged: a
    /// ratio outside `[1/(1+rel_band), 1+rel_band]` is drift. The
    /// default (0.5) flags a 1.5× slowdown or a 33% speedup.
    pub rel_band: f64,
    /// Minimum samples before an estimate is trusted at all (EWMAs of a
    /// handful of samples are still mostly the first sample).
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            rel_band: 0.5,
            min_samples: 8,
        }
    }
}

/// One operator whose live CPU estimate at one site left the band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorDrift {
    /// The site the estimate was sampled at.
    pub site: usize,
    /// The operator.
    pub op: OperatorId,
    /// Per-invocation cost the cut was priced on, on the site's
    /// platform, seconds.
    pub expected_s: f64,
    /// Live EWMA estimate, seconds.
    pub observed_s: f64,
    /// `observed / expected` (> 1 means the operator runs hot).
    pub ratio: f64,
}

/// One edge whose live element-size estimate left the band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeDrift {
    /// The edge.
    pub edge: EdgeId,
    /// Mean element size the cut was priced on, bytes.
    pub expected_bytes: f64,
    /// Live EWMA estimate, bytes.
    pub observed_bytes: f64,
    /// `observed / expected` (> 1 means elements got bigger).
    pub ratio: f64,
}

/// Everything a [`DriftDetector`] flagged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftReport {
    /// Operators running outside the band, hottest first.
    pub operators: Vec<OperatorDrift>,
    /// Edges whose element sizes left the band, largest ratio first.
    pub edges: Vec<EdgeDrift>,
}

impl DriftReport {
    /// Whether nothing drifted.
    pub fn is_clean(&self) -> bool {
        self.operators.is_empty() && self.edges.is_empty()
    }
}

impl fmt::Display for DriftReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "no drift");
        }
        let mut first = true;
        for od in &self.operators {
            if !first {
                writeln!(f)?;
            }
            first = false;
            write!(
                f,
                "op {} at site {} drifted {:.2}x ({:.3e}s -> {:.3e}s per invocation)",
                od.op.0, od.site, od.ratio, od.expected_s, od.observed_s
            )?;
        }
        for ed in &self.edges {
            if !first {
                writeln!(f)?;
            }
            first = false;
            write!(
                f,
                "edge {} drifted {:.2}x ({:.1}B -> {:.1}B per element)",
                ed.edge.0, ed.ratio, ed.expected_bytes, ed.observed_bytes
            )?;
        }
        Ok(())
    }
}

/// Compares a [`LiveProfile`] against the expectations of the
/// [`GraphProfile`] a standing cut was solved against.
///
/// The expectations are snapshotted at construction: per site, each
/// operator's seconds-per-invocation on that site's platform, and per
/// edge the mean element bytes.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftConfig,
    /// `expected_op_s[site][op]`.
    expected_op_s: Vec<Vec<f64>>,
    expected_edge_bytes: Vec<f64>,
}

impl DriftDetector {
    /// Snapshot expectations from `profile`; `platforms[s]` is the
    /// platform of site `s`, numbered as the [`TraceEvent`]s number
    /// them (a simulated `TreeTopology`'s `platforms`).
    pub fn new(profile: &GraphProfile, platforms: &[Platform], cfg: DriftConfig) -> Self {
        assert!(cfg.rel_band > 0.0, "drift band must be positive");
        let expected_op_s = platforms
            .iter()
            .map(|platform| {
                (0..profile.operator_count())
                    .map(|i| profile.seconds_per_invocation(OperatorId(i), platform))
                    .collect()
            })
            .collect();
        let expected_edge_bytes = (0..profile.edge_count())
            .map(|i| profile.mean_element_bytes(EdgeId(i)))
            .collect();
        DriftDetector {
            cfg,
            expected_op_s,
            expected_edge_bytes,
        }
    }

    /// Compare `live` against the snapshotted expectations. Estimates
    /// with fewer than [`DriftConfig::min_samples`] samples, and
    /// operators/edges the profile priced at zero (never invoked on the
    /// profiling trace), are skipped.
    ///
    /// Panics if `live` holds a cost sample from a site the detector has
    /// no platform for.
    pub fn detect(&self, live: &LiveProfile) -> DriftReport {
        assert!(
            live.ops.len() <= self.expected_op_s.len(),
            "a cost sample from site {} has no platform",
            live.ops.len() - 1
        );
        let hi = 1.0 + self.cfg.rel_band;
        let lo = 1.0 / hi;
        let mut report = DriftReport::default();
        for (site, expected_s) in self.expected_op_s.iter().enumerate() {
            for (i, &expected) in expected_s.iter().enumerate() {
                if expected <= 0.0 {
                    continue;
                }
                let Some(est) = live.operator(site, OperatorId(i)) else {
                    continue;
                };
                if est.samples < self.cfg.min_samples {
                    continue;
                }
                let ratio = est.ewma_cpu_s / expected;
                if ratio > hi || ratio < lo {
                    report.operators.push(OperatorDrift {
                        site,
                        op: OperatorId(i),
                        expected_s: expected,
                        observed_s: est.ewma_cpu_s,
                        ratio,
                    });
                }
            }
        }
        for (i, &expected) in self.expected_edge_bytes.iter().enumerate() {
            if expected <= 0.0 {
                continue;
            }
            let Some(est) = live.edge(EdgeId(i)) else {
                continue;
            };
            if est.samples < self.cfg.min_samples {
                continue;
            }
            let ratio = est.ewma_bytes / expected;
            if ratio > hi || ratio < lo {
                report.edges.push(EdgeDrift {
                    edge: EdgeId(i),
                    expected_bytes: expected,
                    observed_bytes: est.ewma_bytes,
                    ratio,
                });
            }
        }
        report.operators.sort_by(|a, b| {
            b.ratio
                .partial_cmp(&a.ratio)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        report.edges.sort_by(|a, b| {
            b.ratio
                .partial_cmp(&a.ratio)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        report
    }
}
