//! Harness-side spans: the traced run wraps every call into a layer's
//! public functions in one, keeps them in memory, and writes them out at
//! the end. Nothing inside the library is instrumented.
//!
//! A span is `{op_id, name, parent, start_ns, end_ns}` plus the counts
//! taken at the same boundary. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover. A
//! *probe* is a span that is not a step of the op — a layer called once
//! more, in place, to read a number the op's own path does not expose
//! (the root LP alone, presolve alone, …); probes are subtracted from
//! their parent like any child and left out of the op's own duration.

use std::io::Write;
use std::time::Instant;

use crate::json;

#[derive(Debug, Clone)]
pub struct Span {
    pub op_id: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub probe: bool,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_op: u32,
    /// Host-normalisation factor of each op (set once the calibration
    /// that closes the op's chunk has run).
    op_scale: Vec<f64>,
}

/// Name of the root span of every replayed op.
pub const OP: &str = "op";

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
            op_scale: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span (a probe when `probe`) under the innermost open one. A
    /// span opened with nothing open starts a new op.
    pub fn open(&mut self, name: &'static str, probe: bool) -> SpanId {
        let parent = self.stack.last().copied();
        let op_id = match parent {
            Some(p) => self.spans[p as usize].op_id,
            None => {
                self.next_op += 1;
                self.op_scale.push(1.0);
                self.next_op - 1
            }
        };
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            op_id,
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
            probe,
            counts: Vec::new(),
        });
        self.stack.push(idx);
        // Stamp last, so the bookkeeping above is charged to the parent.
        self.spans[idx as usize].start_ns = self.now_ns();
        SpanId(idx)
    }

    /// Open a layer span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        self.open(name, false)
    }

    /// Open a probe span (see the module docs).
    pub fn enter_probe(&mut self, name: &'static str) -> SpanId {
        self.open(name, true)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end;
    }

    /// Attach a count to a span (open or closed).
    pub fn count(&mut self, id: SpanId, name: &'static str, value: f64) {
        self.spans[id.0 as usize].counts.push((name, value));
    }

    /// Ops started so far.
    pub fn ops(&self) -> u32 {
        self.next_op
    }

    /// Set the host-normalisation factor of ops `from..`.
    pub fn set_scale_from(&mut self, from: u32, scale: f64) {
        for s in &mut self.op_scale[from as usize..] {
            *s = scale;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, nanoseconds, index-aligned with
    /// [`spans`](Self::spans).
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Per op, the host-normalised sum (milliseconds) of the self times
    /// of the spans called `name`; ops without such a span are left out.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times_ns();
        let mut sums: Vec<Option<f64>> = vec![None; self.next_op as usize];
        for (s, &ns) in self.spans.iter().zip(&selfs) {
            if s.name == name {
                *sums[s.op_id as usize].get_or_insert(0.0) +=
                    ns as f64 * self.op_scale[s.op_id as usize] / 1e6;
            }
        }
        sums.into_iter().flatten().collect()
    }

    /// Host-normalised self time (milliseconds) of every single span
    /// called `name`.
    pub fn each_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &ns)| ns as f64 * self.op_scale[s.op_id as usize] / 1e6)
            .collect()
    }

    /// Per op, the host-normalised duration (milliseconds) of the op
    /// itself — its root span minus the probes directly under it — and
    /// the share of that duration its non-probe child spans cover.
    pub fn op_durations_ms(&self) -> Vec<(f64, f64)> {
        let n = self.next_op as usize;
        let mut total = vec![0.0f64; n];
        let mut probes = vec![0.0f64; n];
        let mut layers = vec![0.0f64; n];
        let mut is_op = vec![false; n];
        for s in &self.spans {
            let op = s.op_id as usize;
            match s.parent {
                None if s.name == OP => {
                    total[op] = s.duration_ns() as f64;
                    is_op[op] = true;
                }
                Some(p) if self.spans[p as usize].parent.is_none() => {
                    if s.probe {
                        probes[op] += s.duration_ns() as f64;
                    } else {
                        layers[op] += s.duration_ns() as f64;
                    }
                }
                _ => {}
            }
        }
        (0..n)
            .filter(|&op| is_op[op])
            .map(|op| {
                let own = total[op] - probes[op];
                (own * self.op_scale[op] / 1e6, layers[op] / own.max(1.0))
            })
            .collect()
    }

    /// Sum of count `count` over the spans called `name` of the first op
    /// that has any (0 when none does). Counts are read off one fixed op
    /// so that they repeat exactly from run to run.
    pub fn first_op_sum(&self, name: &str, count: &str) -> f64 {
        let Some(op) = self.spans.iter().find(|s| s.name == name).map(|s| s.op_id) else {
            return 0.0;
        };
        self.spans
            .iter()
            .filter(|s| s.op_id == op && s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(c, _)| *c == count)
            .map(|&(_, v)| v)
            .sum()
    }

    /// Write at most `max_lines` spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write, max_lines: usize) -> std::io::Result<()> {
        for s in self.spans.iter().take(max_lines) {
            writeln!(out, "{}", span_json(s, self.op_scale[s.op_id as usize]))?;
        }
        out.flush()
    }
}

fn span_json(s: &Span, scale: f64) -> String {
    let mut line = format!(
        "{{\"op_id\": {}, \"name\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \
         \"probe\": {}, \"scale\": {}, \"counts\": {{",
        s.op_id,
        json::quoted(s.name),
        s.parent.map_or("null".to_string(), |p| p.to_string()),
        s.start_ns,
        s.end_ns,
        s.probe,
        json::number(scale),
    );
    for (i, (name, value)) in s.counts.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str(&format!("{}: {}", json::quoted(name), json::number(*value)));
    }
    line.push_str("}}");
    line
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (clipped to the parent, so a child that
/// overruns cannot drive a self time negative).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op_id: 0,
            name,
            parent,
            start_ns,
            end_ns,
            probe: false,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        // op [0,100) with children [10,40) and [40,90): 100 − 30 − 50.
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 40, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // op [0,100) ⊃ a [10,90) ⊃ b [20,50): the grandchild is a's to
        // subtract, not op's.
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 90),
            span("b", Some(1), 20, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn an_overrunning_child_is_clipped_to_its_parent() {
        let spans = [span("op", None, 10, 50), span("a", Some(0), 0, 80)];
        assert_eq!(self_times_ns(&spans), vec![0, 80]);
    }

    #[test]
    fn tracer_nests_numbers_ops_and_excludes_probes() {
        let mut tr = Tracer::new();
        for _ in 0..2 {
            let op = tr.enter(OP);
            let a = tr.enter("layer");
            tr.count(a, "rows", 7.0);
            tr.exit(a);
            let p = tr.enter_probe("side");
            std::thread::sleep(std::time::Duration::from_millis(20));
            tr.exit(p);
            tr.exit(op);
        }
        assert_eq!(tr.ops(), 2);
        let spans = tr.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].op_id, 1);
        assert_eq!(tr.first_op_sum("layer", "rows"), 7.0);
        assert_eq!(tr.first_op_sum("layer", "cols"), 0.0);
        assert_eq!(tr.first_op_sum("absent", "rows"), 0.0);
        assert_eq!(tr.per_op_ms("layer").len(), 2);
        // The 20 ms probe is not part of the op's own duration.
        for (own_ms, coverage) in tr.op_durations_ms() {
            assert!(own_ms < 15.0, "probe time leaked into the op: {own_ms} ms");
            assert!((0.0..=1.0).contains(&coverage));
        }
        let before = tr.each_ms("side");
        tr.set_scale_from(1, 2.0);
        let after = tr.each_ms("side");
        assert_eq!(after[0], before[0]);
        assert_eq!(after[1], 2.0 * before[1]);
    }

    #[test]
    fn span_lines_are_json() {
        let mut s = span("core.encode", Some(3), 5, 9);
        s.counts.push(("vars", 2252.0));
        let v = json::parse(&span_json(&s, 0.5)).unwrap();
        assert_eq!(
            v.get("name").and_then(json::Value::as_str),
            Some("core.encode")
        );
        assert_eq!(v.get("parent").and_then(json::Value::as_f64), Some(3.0));
        assert_eq!(
            v.get("counts")
                .and_then(|c| c.get("vars"))
                .and_then(json::Value::as_f64),
            Some(2252.0)
        );
    }
}
