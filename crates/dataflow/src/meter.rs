//! Abstract-operation metering.
//!
//! The paper profiles operators by executing them on real hardware or a
//! cycle-accurate simulator and timestamping work-function entry, exit, and
//! `emit` points (§3). We have no mote hardware, so work functions instead
//! run the *real* computation while recording counts of abstract machine
//! operations. A per-platform cost model (in `wishbone-profile`) later maps
//! these counts to cycles, capturing effects like missing FPUs (software
//! float emulation on the MSP430) and JVM interpretation overhead.
//!
//! Loop boundaries are also recorded: the paper timestamps the beginning and
//! end of each `for`/`while` loop and counts iterations so that TinyOS tasks
//! can be split at loop granularity (§3, §5.2). [`OpCounts::get_in_loops`]
//! preserves exactly the information that task splitting needs.

use std::ops::{Add, AddAssign};

/// Classes of abstract operations that work functions meter.
///
/// The set is deliberately coarse: the paper's profiler only needs enough
/// fidelity to rank operators per platform, and platform cost tables are the
/// calibration knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU operation (add/sub/shift/compare).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Floating-point add/sub/compare.
    FloatAdd,
    /// Floating-point multiply.
    FloatMul,
    /// Floating-point divide.
    FloatDiv,
    /// Square root.
    Sqrt,
    /// Transcendental (log, exp, sin, cos).
    Transcendental,
    /// Memory read or write of one word.
    Mem,
    /// Taken/untaken branch.
    Branch,
    /// Function call (graph-internal helper, not the work function itself).
    Call,
}

/// All `OpClass` variants in a fixed order (indexable storage).
pub const OP_CLASSES: [OpClass; 10] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::FloatAdd,
    OpClass::FloatMul,
    OpClass::FloatDiv,
    OpClass::Sqrt,
    OpClass::Transcendental,
    OpClass::Mem,
    OpClass::Branch,
    OpClass::Call,
];

impl OpClass {
    /// Dense index of this class into count arrays.
    pub fn index(self) -> usize {
        match self {
            OpClass::IntAlu => 0,
            OpClass::IntMul => 1,
            OpClass::FloatAdd => 2,
            OpClass::FloatMul => 3,
            OpClass::FloatDiv => 4,
            OpClass::Sqrt => 5,
            OpClass::Transcendental => 6,
            OpClass::Mem => 7,
            OpClass::Branch => 8,
            OpClass::Call => 9,
        }
    }
}

/// A bag of abstract-operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounts {
    counts: [u64; OP_CLASSES.len()],
    /// Portion of `counts` that was recorded inside `loop_begin`/`loop_end`
    /// scopes. Task splitting can only cut inside loops, so this is the
    /// "divisible" share of an operator's work.
    in_loops: [u64; OP_CLASSES.len()],
    /// Total loop iterations observed (across all loops and invocations).
    pub loop_iters: u64,
    /// Number of loop scopes entered.
    pub loops_entered: u64,
}

impl OpCounts {
    /// Empty counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` operations of class `c` (outside any loop scope).
    pub fn record(&mut self, c: OpClass, n: u64) {
        self.counts[c.index()] += n;
    }

    /// Record `n` operations of class `c` attributed to loop bodies.
    pub(crate) fn record_in_loop(&mut self, c: OpClass, n: u64) {
        self.counts[c.index()] += n;
        self.in_loops[c.index()] += n;
    }

    /// Raw count for one class.
    pub fn get(&self, c: OpClass) -> u64 {
        self.counts[c.index()]
    }

    /// Count recorded inside loops for one class.
    pub fn get_in_loops(&self, c: OpClass) -> u64 {
        self.in_loops[c.index()]
    }

    /// Total operations of all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of all operations recorded inside loop bodies, in `[0, 1]`.
    ///
    /// This is the sliceable share used by the TinyOS task splitter: a pure
    /// straight-line operator (0.0) cannot be split; an operator that spends
    /// everything in loops (1.0) can be cut into near-equal slices.
    pub fn loop_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.in_loops.iter().sum::<u64>() as f64 / total as f64
    }

    /// True if no operations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0 && self.loop_iters == 0
    }
}

impl Add for OpCounts {
    type Output = OpCounts;
    fn add(mut self, rhs: OpCounts) -> OpCounts {
        self += rhs;
        self
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        for i in 0..OP_CLASSES.len() {
            self.counts[i] += rhs.counts[i];
            self.in_loops[i] += rhs.in_loops[i];
        }
        self.loop_iters += rhs.loop_iters;
        self.loops_entered += rhs.loops_entered;
    }
}

/// The metering half of a work function's execution context.
///
/// Tracks loop nesting so counts recorded inside `loop_scope` are attributed
/// to the divisible (`in_loops`) share.
#[derive(Debug, Default)]
pub struct Meter {
    counts: OpCounts,
    loop_depth: u32,
}

impl Meter {
    /// Fresh meter with zero counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` abstract operations of class `c`, attributed to the
    /// current loop scope if one is open.
    pub fn op(&mut self, c: OpClass, n: u64) {
        if self.loop_depth > 0 {
            self.counts.record_in_loop(c, n);
        } else {
            self.counts.record(c, n);
        }
    }

    /// Convenience: integer ALU ops.
    pub fn int(&mut self, n: u64) {
        self.op(OpClass::IntAlu, n);
    }

    /// Convenience: integer multiplies.
    pub fn imul(&mut self, n: u64) {
        self.op(OpClass::IntMul, n);
    }

    /// Convenience: float add/sub.
    pub fn fadd(&mut self, n: u64) {
        self.op(OpClass::FloatAdd, n);
    }

    /// Convenience: float multiplies.
    pub fn fmul(&mut self, n: u64) {
        self.op(OpClass::FloatMul, n);
    }

    /// Convenience: square roots.
    pub fn sqrt(&mut self, n: u64) {
        self.op(OpClass::Sqrt, n);
    }

    /// Convenience: transcendental calls (log/exp/sin/cos).
    pub fn transcendental(&mut self, n: u64) {
        self.op(OpClass::Transcendental, n);
    }

    /// Convenience: memory accesses.
    pub fn mem(&mut self, n: u64) {
        self.op(OpClass::Mem, n);
    }

    /// Convenience: branches.
    pub fn branch(&mut self, n: u64) {
        self.op(OpClass::Branch, n);
    }

    /// Enter a loop scope that performed `iters` iterations. The closure is
    /// the loop body's metering; counts inside it are marked divisible.
    ///
    /// Mirrors the paper's "time stamp the beginning and end of each for or
    /// while loop, and count loop iterations".
    pub fn loop_scope<R>(&mut self, iters: u64, body: impl FnOnce(&mut Meter) -> R) -> R {
        self.loop_depth += 1;
        self.counts.loops_entered += 1;
        self.counts.loop_iters += iters;
        let r = body(self);
        self.loop_depth -= 1;
        r
    }

    /// Counts accumulated so far.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Reset counts to zero (used between operator invocations).
    pub fn reset(&mut self) -> OpCounts {
        std::mem::take(&mut self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_attributes_loop_counts() {
        let mut m = Meter::new();
        m.int(5);
        m.loop_scope(10, |m| {
            m.fmul(40);
            m.fadd(40);
        });
        let c = m.counts();
        assert_eq!(c.get(OpClass::IntAlu), 5);
        assert_eq!(c.get(OpClass::FloatMul), 40);
        assert_eq!(c.get_in_loops(OpClass::FloatMul), 40);
        assert_eq!(c.get_in_loops(OpClass::IntAlu), 0);
        assert_eq!(c.loop_iters, 10);
        assert_eq!(c.loops_entered, 1);
        let lf = c.loop_fraction();
        assert!((lf - 80.0 / 85.0).abs() < 1e-12, "loop fraction {lf}");
    }

    #[test]
    fn nested_loops_count_once() {
        let mut m = Meter::new();
        m.loop_scope(4, |m| {
            m.loop_scope(16, |m| m.int(16));
        });
        let c = m.counts();
        assert_eq!(c.loops_entered, 2);
        assert_eq!(c.loop_iters, 20);
        assert_eq!(c.get_in_loops(OpClass::IntAlu), 16);
        assert!((c.loop_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counts_add() {
        let mut a = OpCounts::new();
        a.record(OpClass::Mem, 3);
        let mut b = OpCounts::new();
        b.record(OpClass::Mem, 4);
        b.record_in_loop(OpClass::Sqrt, 1);
        let c = a + b;
        assert_eq!(c.get(OpClass::Mem), 7);
        assert_eq!(c.get(OpClass::Sqrt), 1);
        assert_eq!(c.get_in_loops(OpClass::Sqrt), 1);
    }

    #[test]
    fn reset_returns_and_clears() {
        let mut m = Meter::new();
        m.int(2);
        let c = m.reset();
        assert_eq!(c.get(OpClass::IntAlu), 2);
        assert!(m.counts().is_empty());
    }
}
