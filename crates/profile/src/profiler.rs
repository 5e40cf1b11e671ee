//! The graph profiler: execute a dataflow graph over sample traces and
//! record per-operator costs and per-edge data rates.
//!
//! "The compiler executes each operator against programmer-supplied sample
//! data ... After profiling, we are able to estimate the CPU and
//! communication requirements of every operator on every platform" (§1).
//! The profile records mean load only: Wishbone prices the mean for the
//! predictable-rate applications it targets (§4.2.1).

use std::collections::HashMap;
use std::sync::OnceLock;

use wishbone_dataflow::{
    EdgeId, ExecCtx, Fingerprint, Graph, OpCounts, OperatorId, OperatorKind, Value, WorkFn,
    OP_CLASSES,
};

use wishbone_net::PacketFormat;

use crate::platform::{class_counts, CostRow, Platform};

/// Sample input for one source operator.
#[derive(Debug, Clone)]
pub struct SourceTrace {
    /// The source this trace feeds.
    pub source: OperatorId,
    /// Sample elements (e.g. audio frames). Must be representative of
    /// deployment inputs — a Wishbone assumption (§1).
    pub elements: Vec<Value>,
    /// Element rate at the reference data rate, elements/second (e.g. 40
    /// frames/s for 8 kHz audio in 200-sample frames).
    pub rate_hz: f64,
}

/// Profiling failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// Graph validation failed first.
    InvalidGraph(String),
    /// A source operator has no trace.
    MissingTrace(OperatorId),
    /// A trace names a non-source operator.
    NotASource(OperatorId),
    /// Traces are empty.
    EmptyTrace(OperatorId),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::InvalidGraph(e) => write!(f, "invalid graph: {e}"),
            ProfileError::MissingTrace(id) => write!(f, "source {id} has no sample trace"),
            ProfileError::NotASource(id) => write!(f, "operator {id} is not a source"),
            ProfileError::EmptyTrace(id) => write!(f, "trace for {id} is empty"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Profile of one operator.
#[derive(Debug, Clone, Default)]
pub struct OperatorProfile {
    /// Work-function invocations observed.
    pub invocations: u64,
    /// Summed op counts over all invocations.
    pub total_counts: OpCounts,
}

/// Profile of one edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeProfile {
    /// Elements that crossed the edge.
    pub elements: u64,
    /// Marshalled bytes that crossed the edge.
    pub bytes: u64,
}

/// Complete profiling result at the reference data rate.
#[derive(Debug, Clone)]
pub struct GraphProfile {
    per_op: Vec<OperatorProfile>,
    per_edge: Vec<EdgeProfile>,
    /// Wall-clock span of the trace at the reference rate, seconds.
    pub duration_s: f64,
    /// [`fingerprint`](Self::fingerprint), computed on first call.
    /// `per_op` and `per_edge` never change after [`profile`], so it is
    /// never reset.
    fingerprint: OnceLock<Fingerprint>,
    /// [`price_inputs`](Self::price_inputs), computed on the first batched
    /// pricing and never reset, for the same reason.
    price_inputs: OnceLock<PriceInputs>,
}

/// What a price reads of the profile that no platform changes: each
/// operator's per-class counts as `f64` ([`class_counts`]) and each
/// edge's [`traffic`].
#[derive(Debug, Clone)]
struct PriceInputs {
    counts: Vec<[f64; OP_CLASSES.len()]>,
    traffic: Vec<Option<(usize, f64)>>,
}

impl GraphProfile {
    /// Profile of one operator.
    pub fn operator(&self, id: OperatorId) -> &OperatorProfile {
        &self.per_op[id.0]
    }

    /// Profile of one edge.
    pub fn edge(&self, id: EdgeId) -> &EdgeProfile {
        &self.per_edge[id.0]
    }

    /// The words of what the two pricing methods read, except the duration:
    /// the operator count and each operator's per-class total counts
    /// ([`cpu_fraction`](Self::cpu_fraction)), then the edge count and
    /// each edge's bytes and elements
    /// ([`edge_on_air_bandwidth`](Self::edge_on_air_bandwidth)).
    /// `duration_s` is a public field, so a key reads it afresh.
    pub fn fingerprint(&self) -> &Fingerprint {
        self.fingerprint.get_or_init(|| {
            let ops = self.per_op.len();
            let mut words =
                Vec::with_capacity(2 + OP_CLASSES.len() * ops + 2 * self.per_edge.len());
            words.push(ops as u64);
            for p in &self.per_op {
                words.extend(OP_CLASSES.iter().map(|&c| p.total_counts.get(c)));
            }
            words.push(self.per_edge.len() as u64);
            for e in &self.per_edge {
                words.extend([e.bytes, e.elements]);
            }
            Fingerprint::new(words)
        })
    }

    /// Mean CPU *fraction* (seconds of CPU per second of wall clock) an
    /// operator needs on `platform` at the reference rate. Scales linearly
    /// with the data-rate multiplier (§4.3's monotonicity assumption). The
    /// one-item case of [`cpu_fractions`](Self::cpu_fractions).
    pub fn cpu_fraction(&self, id: OperatorId, platform: &Platform) -> f64 {
        let counts = class_counts(&self.per_op[id.0].total_counts);
        self.fraction(&CostRow::of(platform), &counts)
    }

    /// Every operator's [`cpu_fraction`](Self::cpu_fraction) on each of
    /// `platforms`, times `rate`, written operator-major into `out`
    /// (replacing its contents): operator `i` on `platforms[t]` is
    /// `out[i·k + t]`, `k = platforms.len()`. Bit for bit
    /// `cpu_fraction(i, platforms[t]) * rate`, at a fraction of the work:
    /// each platform's cost row (cycle table and effective clock) is built
    /// once per call, each operator's counts are converted to `f64` once
    /// per profile, and a tier whose row equals an earlier tier's — a
    /// repeated platform, or one that differs only in name or radio —
    /// copies that tier's price.
    pub fn cpu_fractions(&self, platforms: &[&Platform], rate: f64, out: &mut Vec<f64>) {
        let rows: Vec<CostRow> = platforms.iter().map(|p| CostRow::of(p)).collect();
        let first = first_equal(&rows, CostRow::same_as);
        out.clear();
        out.reserve(self.per_op.len() * rows.len());
        for counts in &self.price_inputs().counts {
            let at = out.len();
            for (t, row) in rows.iter().enumerate() {
                let price = match first[t] {
                    s if s == t => self.fraction(row, counts) * rate,
                    s => out[at + s],
                };
                out.push(price);
            }
        }
    }

    /// The profile's [`PriceInputs`], computed on first use.
    fn price_inputs(&self) -> &PriceInputs {
        self.price_inputs.get_or_init(|| PriceInputs {
            counts: (self.per_op.iter())
                .map(|p| class_counts(&p.total_counts))
                .collect(),
            traffic: self.per_edge.iter().map(traffic).collect(),
        })
    }

    /// The one CPU fraction formula: seconds on `row`, then over the
    /// trace's duration.
    fn fraction(&self, row: &CostRow, counts: &[f64; OP_CLASSES.len()]) -> f64 {
        row.seconds(counts) / self.duration_s
    }

    /// Mean application-payload bandwidth of an edge, bytes/second, at the
    /// reference rate.
    pub fn edge_bandwidth(&self, id: EdgeId) -> f64 {
        self.per_edge[id.0].bytes as f64 / self.duration_s
    }

    /// On-air bandwidth of an edge including packet framing for
    /// `platform`'s radio, bytes/second. The one-item case of
    /// [`edge_on_air_bandwidths`](Self::edge_on_air_bandwidths).
    pub fn edge_on_air_bandwidth(&self, id: EdgeId, platform: &Platform) -> f64 {
        self.on_air(traffic(&self.per_edge[id.0]), &platform.radio.format)
    }

    /// Every edge's [`edge_on_air_bandwidth`](Self::edge_on_air_bandwidth)
    /// with each of `platforms`' radio framing, times `rate`, written
    /// edge-major into `out` (replacing its contents): edge `e` framed by
    /// `platforms[b]` is `out[e·k + b]`, `k = platforms.len()`. Bit for bit
    /// `edge_on_air_bandwidth(e, platforms[b]) * rate`: each edge's mean
    /// element is rounded once per profile, and each distinct
    /// [`PacketFormat`] is priced once per edge — a platform framing like
    /// an earlier one copies its price.
    ///
    /// [`PacketFormat`]: wishbone_net::PacketFormat
    pub fn edge_on_air_bandwidths(&self, platforms: &[&Platform], rate: f64, out: &mut Vec<f64>) {
        let formats: Vec<PacketFormat> = platforms.iter().map(|p| p.radio.format).collect();
        let first = first_equal(&formats, PacketFormat::eq);
        out.clear();
        out.reserve(self.per_edge.len() * formats.len());
        for &traffic in &self.price_inputs().traffic {
            let at = out.len();
            for (b, format) in formats.iter().enumerate() {
                let price = match first[b] {
                    s if s == b => self.on_air(traffic, format) * rate,
                    s => out[at + s],
                };
                out.push(price);
            }
        }
    }

    /// The one on-air bandwidth formula: `traffic`'s elements framed by
    /// `format`, over the trace's duration.
    fn on_air(&self, traffic: Option<(usize, f64)>, format: &PacketFormat) -> f64 {
        match traffic {
            None => 0.0,
            Some((mean_elem, elements)) => {
                format.on_air_bytes(mean_elem) as f64 * elements / self.duration_s
            }
        }
    }

    /// Per-operator CPU seconds per invocation on `platform`.
    pub fn seconds_per_invocation(&self, id: OperatorId, platform: &Platform) -> f64 {
        let p = &self.per_op[id.0];
        if p.invocations == 0 {
            0.0
        } else {
            platform.seconds_for(&p.total_counts) / p.invocations as f64
        }
    }

    /// Heat values (normalized total platform cycles) for DOT export.
    pub fn heat(&self, platform: &Platform) -> Vec<(OperatorId, f64)> {
        let secs: Vec<f64> = self
            .per_op
            .iter()
            .map(|p| platform.seconds_for(&p.total_counts))
            .collect();
        let max = secs.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
        secs.iter()
            .enumerate()
            .map(|(i, &s)| (OperatorId(i), s / max))
            .collect()
    }

    /// Number of profiled operators.
    pub fn operator_count(&self) -> usize {
        self.per_op.len()
    }

    /// Number of profiled edges.
    pub fn edge_count(&self) -> usize {
        self.per_edge.len()
    }

    /// Mean marshalled element size on an edge, bytes (0 if nothing
    /// crossed it on the profiling trace).
    pub fn mean_element_bytes(&self, id: EdgeId) -> f64 {
        let e = &self.per_edge[id.0];
        if e.elements == 0 {
            0.0
        } else {
            e.bytes as f64 / e.elements as f64
        }
    }
}

/// What an edge's on-air price reads: its mean element size, rounded to
/// whole bytes, and its element count — `None` if nothing crossed it.
fn traffic(e: &EdgeProfile) -> Option<(usize, f64)> {
    (e.elements != 0).then(|| {
        let elements = e.elements as f64;
        ((e.bytes as f64 / elements).round() as usize, elements)
    })
}

/// For each item, the index of the first item `same` as it (its own index
/// if none before it is): the item whose price it copies.
fn first_equal<T>(items: &[T], same: impl Fn(&T, &T) -> bool) -> Vec<usize> {
    (0..items.len())
        .map(|i| (0..i).find(|&j| same(&items[j], &items[i])).unwrap_or(i))
        .collect()
}

/// Execute `graph` over `traces` and collect a [`GraphProfile`].
///
/// Elements are injected source by source in timestamp order (element `i`
/// of a source is at time `i / rate_hz`) and propagated depth-first to the
/// sinks, mirroring the single-threaded traversal of the generated C code
/// (§5.1). The run uses its own instances from
/// [`Graph::instantiate_work`], dropped on return, so the profile is a
/// function of `(graph, traces)` alone and the graph's prototypes stay
/// unrun.
pub fn profile(graph: &Graph, traces: &[SourceTrace]) -> Result<GraphProfile, ProfileError> {
    graph
        .validate()
        .map_err(|e| ProfileError::InvalidGraph(e.to_string()))?;

    let mut trace_of: HashMap<OperatorId, &SourceTrace> = HashMap::new();
    for t in traces {
        if graph.spec(t.source).kind != OperatorKind::Source {
            return Err(ProfileError::NotASource(t.source));
        }
        if t.elements.is_empty() {
            return Err(ProfileError::EmptyTrace(t.source));
        }
        trace_of.insert(t.source, t);
    }
    for s in graph.sources() {
        if !trace_of.contains_key(&s) {
            return Err(ProfileError::MissingTrace(s));
        }
    }

    let mut per_op = vec![OperatorProfile::default(); graph.operator_count()];
    let mut per_edge = vec![EdgeProfile::default(); graph.edge_count()];

    // Merge all source elements into one global timeline.
    let mut timeline: Vec<(f64, OperatorId, &Value)> = Vec::new();
    for t in traces {
        for (i, v) in t.elements.iter().enumerate() {
            timeline.push((i as f64 / t.rate_hz, t.source, v));
        }
    }
    timeline.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let duration_s = traces
        .iter()
        .map(|t| t.elements.len() as f64 / t.rate_hz)
        .fold(0.0f64, f64::max);

    let mut work = graph.instantiate_work();
    for &(_, src, v) in &timeline {
        run_cascade(graph, &mut work, src, 0, v, &mut per_op, &mut per_edge);
    }

    Ok(GraphProfile {
        per_op,
        per_edge,
        duration_s,
        fingerprint: OnceLock::new(),
        price_inputs: OnceLock::new(),
    })
}

/// Run `op`'s instance in `work` on one element and recursively deliver
/// its emissions downstream (depth-first traversal).
fn run_cascade(
    graph: &Graph,
    work: &mut [Option<Box<dyn WorkFn>>],
    op: OperatorId,
    port: usize,
    input: &Value,
    per_op: &mut [OperatorProfile],
    per_edge: &mut [EdgeProfile],
) {
    if graph.spec(op).kind == OperatorKind::Sink {
        per_op[op.0].invocations += 1;
        return;
    }
    let mut cx = ExecCtx::new();
    work[op.0]
        .as_mut()
        .unwrap_or_else(|| panic!("operator {op} has no work function"))
        .process(port, input, &mut cx);
    let (outputs, counts) = cx.finish();
    let p = &mut per_op[op.0];
    p.invocations += 1;
    p.total_counts += counts;
    for v in &outputs {
        let bytes = v.wire_size() as u64;
        for &eid in graph.out_edges(op) {
            let e = graph.edge(eid);
            let ep = &mut per_edge[eid.0];
            ep.elements += 1;
            ep.bytes += bytes;
            run_cascade(graph, work, e.dst, e.dst_port, v, per_op, per_edge);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbone_dataflow::{ExecCtx, FnWork, GraphBuilder, Value};

    /// src -> halver (drops every other element) -> sink
    fn halving_graph() -> (Graph, OperatorId, OperatorId, OperatorId) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let halver = b.stateful_transform(
            "halver",
            Box::new(FnWork({
                let mut toggle = false;
                move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                    cx.meter().int(10);
                    toggle = !toggle;
                    if toggle {
                        cx.emit(v.clone());
                    }
                }
            })),
            src,
        );
        b.exit_namespace();
        let sink = b.sink("out", halver);
        let g = b.finish().unwrap();
        (g, src.0, halver.0, sink)
    }

    fn trace(src: OperatorId, n: usize, rate: f64) -> SourceTrace {
        SourceTrace {
            source: src,
            elements: (0..n).map(|i| Value::VecI16(vec![i as i16; 100])).collect(),
            rate_hz: rate,
        }
    }

    #[test]
    fn profiles_rates_and_reduction() {
        let (g, src, halver, _sink) = halving_graph();
        let p = profile(&g, &[trace(src, 100, 10.0)]).unwrap();
        assert!((p.duration_s - 10.0).abs() < 1e-9);
        assert_eq!(p.operator(src).invocations, 100);
        assert_eq!(p.operator(halver).invocations, 100);

        // Edge 0: src -> halver, 100 elements of 202 bytes at 10/s.
        let e0 = wishbone_dataflow::EdgeId(0);
        assert_eq!(p.edge(e0).elements, 100);
        assert!((p.edge_bandwidth(e0) - 100.0 * 202.0 / 10.0).abs() < 1e-6);
        // Edge 1: halver -> sink, halved.
        let e1 = wishbone_dataflow::EdgeId(1);
        assert_eq!(p.edge(e1).elements, 50);
        assert!((p.edge_bandwidth(e1) - 50.0 * 202.0 / 10.0).abs() < 1e-6);
    }

    #[test]
    fn cpu_fraction_scales_with_platform() {
        let (g, src, halver, _) = halving_graph();
        let p = profile(&g, &[trace(src, 100, 10.0)]).unwrap();
        let tmote = Platform::tmote_sky();
        let server = Platform::server();
        let f_mote = p.cpu_fraction(halver, &tmote);
        let f_srv = p.cpu_fraction(halver, &server);
        assert!(f_mote > 100.0 * f_srv, "mote {f_mote} vs server {f_srv}");
        assert!(f_mote < 1.0, "trivial op fits on the mote");
    }

    #[test]
    fn missing_trace_is_an_error() {
        let (g, _src, _h, _) = halving_graph();
        assert!(matches!(
            profile(&g, &[]),
            Err(ProfileError::MissingTrace(_))
        ));
    }

    #[test]
    fn non_source_trace_rejected() {
        let (g, _src, halver, _) = halving_graph();
        let bad = trace(halver, 2, 1.0);
        assert_eq!(
            profile(&g, &[bad]).unwrap_err(),
            ProfileError::NotASource(halver)
        );
    }

    #[test]
    fn empty_trace_rejected() {
        let (g, src, _h, _) = halving_graph();
        let t = SourceTrace {
            source: src,
            elements: vec![],
            rate_hz: 1.0,
        };
        assert_eq!(
            profile(&g, &[t]).unwrap_err(),
            ProfileError::EmptyTrace(src)
        );
    }

    #[test]
    fn total_counts_sum_every_invocation() {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let spiky = b.transform(
            "spiky",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                // Cost depends on the element content: every 10th is big.
                let n = v.as_scalar().unwrap() as u64;
                cx.meter().int(if n.is_multiple_of(10) { 1000 } else { 1 });
                cx.emit(v.clone());
            })),
            src,
        );
        b.exit_namespace();
        b.sink("out", spiky);
        let g = b.finish().unwrap();
        let t = SourceTrace {
            source: src.0,
            elements: (0..20).map(Value::I32).collect(),
            rate_hz: 1.0,
        };
        let p = profile(&g, &[t]).unwrap();
        let prof = p.operator(spiky.0);
        // Elements 0 and 10 cost 1000 each, the other 18 cost 1.
        assert_eq!(prof.total_counts.total(), 2 * 1000 + 18);
        let tmote = Platform::tmote_sky();
        let mean = tmote.seconds_for(&prof.total_counts) / 20.0;
        assert_eq!(p.seconds_per_invocation(spiky.0, &tmote), mean);
    }

    #[test]
    fn heat_is_normalized() {
        let (g, src, _h, _) = halving_graph();
        let p = profile(&g, &[trace(src, 10, 1.0)]).unwrap();
        let heat = p.heat(&Platform::server());
        assert_eq!(heat.len(), 3);
        let max = heat.iter().map(|&(_, h)| h).fold(0.0f64, f64::max);
        assert!((max - 1.0).abs() < 1e-9);
        assert!(heat.iter().all(|&(_, h)| (0.0..=1.0).contains(&h)));
    }
}
