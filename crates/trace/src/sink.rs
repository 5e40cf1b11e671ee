//! Trace events and the sink trait the runtime emits them through.

use wishbone_dataflow::{EdgeId, OperatorId};

/// One structured telemetry record emitted by a traced simulation.
///
/// Events reference sites by their index in the simulated
/// topology (`TreeTopology` site numbering: 0 is the server root) and
/// operators/edges by their dataflow ids, so a consumer can join them
/// back against the partition and the profile the cut was solved from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One work-function invocation finished at a site: the CPU-seconds
    /// the site charged for it, and what the profile prices it at.
    OperatorCost {
        /// Site the operator ran on.
        site: usize,
        /// The operator.
        op: OperatorId,
        /// Charged CPU time, seconds: task-model and OS overheads
        /// included — what the site's busy clock advanced by.
        cpu_s: f64,
        /// The invocation's op counts priced on the site's platform
        /// (`Platform::seconds_for`), before any overhead, seconds — the
        /// quantity a profile's seconds per invocation averages, so the
        /// sample a [`LiveProfile`](crate::LiveProfile) folds.
        profile_s: f64,
    },
    /// One element offered to the uplink out of `site` towards its
    /// parent, and whether it survived the channel (contention losses and
    /// lossy-uplink fades both clear `delivered`; drops that happen
    /// *after* the air — reboot outages, relay saturation — are reported
    /// as [`TraceEvent::Outage`] / absorbed into the site ledgers
    /// instead).
    EdgeElement {
        /// Child endpoint of the tree edge (the sender).
        site: usize,
        /// Dataflow edge the element crossed.
        edge: EdgeId,
        /// Marshalled payload size, bytes.
        wire_bytes: usize,
        /// Whether the element made it across the air.
        delivered: bool,
    },
    /// Aggregate channel view of one tree edge after its pass completed.
    EdgeSummary {
        /// Child endpoint of the tree edge.
        site: usize,
        /// Application payload offered to the channel, bytes/second.
        offered_bytes_per_sec: f64,
        /// Packet delivery ratio the shared channel reports.
        delivery_ratio: f64,
    },
    /// Final busy fraction of one site (CPU-seconds consumed over
    /// device-count × duration, saturating at 1).
    SiteBusy {
        /// The site.
        site: usize,
        /// Busy fraction in `[0, 1]`.
        busy_fraction: f64,
    },
    /// One failure-outage window and what it cost.
    Outage {
        /// Site the failure was attached to.
        site: usize,
        /// Window start, seconds.
        start_s: f64,
        /// Window end, seconds.
        end_s: f64,
        /// Elements dropped inside the window.
        dropped: u64,
        /// Elements that still got through (e.g. a fade that only
        /// sometimes loses).
        delivered: u64,
    },
}

/// Receiver for [`TraceEvent`]s.
///
/// Instrumented code MUST gate event construction on [`enabled`]
/// (`if sink.enabled() { sink.record(...) }`) so the off path —
/// [`NullSink`] — costs nothing: the branch is monomorphized to a
/// constant `false` and the event is never built.
///
/// [`enabled`]: TraceSink::enabled
pub trait TraceSink {
    /// Whether this sink wants events at all. Defaults to `true`;
    /// [`NullSink`] overrides it to a constant `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event. Only called when [`enabled`](TraceSink::enabled)
    /// returned `true`.
    fn record(&mut self, event: TraceEvent);
}

/// The zero-cost off path: `enabled()` is a constant `false` and
/// `record` is unreachable in practice. Untraced simulation entry points
/// delegate to the traced ones with a `NullSink`, which the optimizer
/// erases entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// A sink that buffers every event in memory, for offline analysis
/// (attribution, folding into a [`LiveProfile`](crate::LiveProfile),
/// test assertions).
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// Every recorded event, in emission order.
    pub events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}
