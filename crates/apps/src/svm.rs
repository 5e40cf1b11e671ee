//! Patient-specific seizure classifier: a linear SVM plus the
//! three-consecutive-windows declaration rule (§6.1).
//!
//! "All features from all channels, 66 in total, are combined into a single
//! vector which is input into a patient-specific support vector machine ...
//! After three consecutive positive windows have been detected, a seizure
//! is declared." The evaluation uses the SVM as a pipeline stage, so a
//! linear kernel with a small sub-gradient trainer (for the tests) is the
//! right fidelity.

use wishbone_dataflow::{ExecCtx, Value, WorkFn};

/// A trained linear SVM.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    /// Feature weights.
    pub weights: Vec<f32>,
    /// Bias term.
    pub bias: f32,
}

impl LinearSvm {
    /// SVM with explicit parameters.
    pub fn new(weights: Vec<f32>, bias: f32) -> Self {
        LinearSvm { weights, bias }
    }

    /// Decision value `w·x + b` (positive = seizure class).
    pub fn decision(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.weights.len(), "feature arity mismatch");
        self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f32>() + self.bias
    }

    /// Binary prediction.
    pub fn predict(&self, x: &[f32]) -> bool {
        self.decision(x) > 0.0
    }

    /// Train with sub-gradient descent on the L2-regularized hinge loss
    /// (Pegasos-style). `labels` are `true` for seizure windows.
    pub fn train(features: &[Vec<f32>], labels: &[bool], epochs: usize, lambda: f32) -> Self {
        assert_eq!(features.len(), labels.len());
        assert!(!features.is_empty());
        let dim = features[0].len();
        let mut w = vec![0.0f32; dim];
        let mut b = 0.0f32;
        let mut t = 1u32;
        for _ in 0..epochs {
            for (x, &label) in features.iter().zip(labels) {
                let y = if label { 1.0f32 } else { -1.0 };
                let eta = 1.0 / (lambda * t as f32);
                let margin = y * (w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f32>() + b);
                for wi in w.iter_mut() {
                    *wi *= 1.0 - eta * lambda;
                }
                if margin < 1.0 {
                    for (wi, xi) in w.iter_mut().zip(x) {
                        *wi += eta * y * xi;
                    }
                    b += eta * y;
                }
                t += 1;
            }
        }
        LinearSvm {
            weights: w,
            bias: b,
        }
    }

    /// Classification accuracy on a labelled set.
    pub fn accuracy(&self, features: &[Vec<f32>], labels: &[bool]) -> f64 {
        let correct = features
            .iter()
            .zip(labels)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / features.len() as f64
    }
}

/// Flatten a (possibly nested) tuple of scalars into a feature vector.
pub fn flatten_features(v: &Value, out: &mut Vec<f32>) {
    match v {
        Value::Tuple(vs) => {
            for inner in vs {
                flatten_features(inner, out);
            }
        }
        Value::VecF32(vs) => out.extend_from_slice(vs),
        other => {
            if let Some(x) = other.as_scalar() {
                out.push(x);
            } else {
                panic!("flatten_features: non-scalar leaf {}", other.type_name());
            }
        }
    }
}

/// Dataflow operator applying a [`LinearSvm`] to (nested-tuple) feature
/// elements, emitting `Bool` per window.
#[derive(Debug, Clone)]
pub struct SvmOp {
    svm: LinearSvm,
}

impl SvmOp {
    /// Wrap a trained SVM.
    pub fn new(svm: LinearSvm) -> Self {
        SvmOp { svm }
    }
}

impl WorkFn for SvmOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let mut x = Vec::with_capacity(self.svm.weights.len());
        flatten_features(input, &mut x);
        let n = x.len() as u64;
        cx.meter().loop_scope(n, |m| {
            m.fmul(n);
            m.fadd(n);
            m.mem(2 * n);
        });
        cx.emit(Value::Bool(self.svm.decision(&x) > 0.0));
    }
}

/// Stateful declaration operator: emits `Bool(true)` once `threshold`
/// consecutive positive windows have been seen, `Bool(false)` otherwise.
#[derive(Debug, Clone)]
pub struct DeclareOp {
    threshold: u32,
    run: u32,
}

impl DeclareOp {
    /// Declare after `threshold` consecutive positives (3 in the paper).
    pub fn new(threshold: u32) -> Self {
        DeclareOp { threshold, run: 0 }
    }
}

impl WorkFn for DeclareOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let positive = matches!(input, Value::Bool(true));
        self.run = if positive { self.run + 1 } else { 0 };
        cx.meter().int(2);
        cx.meter().branch(1);
        cx.emit(Value::Bool(self.run >= self.threshold));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn separable_data(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let label = rng.gen_bool(0.5);
            let center = if label { 2.0f32 } else { -2.0 };
            let x: Vec<f32> = (0..dim)
                .map(|_| center + rng.gen_range(-1.0f32..1.0))
                .collect();
            xs.push(x);
            ys.push(label);
        }
        (xs, ys)
    }

    #[test]
    fn trains_on_separable_data() {
        let (xs, ys) = separable_data(200, 6, 1);
        let svm = LinearSvm::train(&xs, &ys, 60, 0.01);
        assert!(
            svm.accuracy(&xs, &ys) > 0.95,
            "accuracy {}",
            svm.accuracy(&xs, &ys)
        );
    }

    #[test]
    fn decision_is_linear() {
        let svm = LinearSvm::new(vec![1.0, -2.0], 0.5);
        assert!((svm.decision(&[2.0, 1.0]) - 0.5).abs() < 1e-6);
        assert!(svm.predict(&[2.0, 0.0]));
        assert!(!svm.predict(&[-2.0, 0.0]));
    }

    #[test]
    fn flatten_nested_tuples() {
        let v = Value::Tuple(vec![
            Value::Tuple(vec![Value::F32(1.0), Value::F32(2.0)]),
            Value::F32(3.0),
            Value::VecF32(vec![4.0, 5.0]),
        ]);
        let mut out = Vec::new();
        flatten_features(&v, &mut out);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn declare_requires_three_consecutive() {
        let mut op = DeclareOp::new(3);
        let run = |op: &mut DeclareOp, b: bool| {
            let mut cx = ExecCtx::new();
            op.process(0, &Value::Bool(b), &mut cx);
            cx.finish().0[0] == Value::Bool(true)
        };
        assert!(!run(&mut op, true));
        assert!(!run(&mut op, true));
        assert!(run(&mut op, true)); // third consecutive
        assert!(run(&mut op, true)); // stays declared while positive
        assert!(!run(&mut op, false)); // reset
        assert!(!run(&mut op, true));
        assert!(!run(&mut op, true));
    }

    #[test]
    fn svm_op_emits_bool_and_meters() {
        let svm = LinearSvm::new(vec![1.0; 4], -1.0);
        let mut op = SvmOp::new(svm);
        let mut cx = ExecCtx::new();
        op.process(0, &Value::VecF32(vec![1.0, 1.0, 1.0, 1.0]), &mut cx);
        let (out, counts) = cx.finish();
        assert_eq!(out, vec![Value::Bool(true)]);
        assert!(counts.total() > 0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let svm = LinearSvm::new(vec![1.0; 4], 0.0);
        let _ = svm.decision(&[1.0, 2.0]);
    }
}
