//! Dataflow operator adapters around the DSP kernels.
//!
//! Each adapter implements [`WorkFn`]: it runs the real kernel on the input
//! element, meters the work, and emits the result. Type mismatches panic
//! with the operator name — graphs are statically constructed, so a
//! mismatch is a programming error, not a runtime condition.

use std::collections::VecDeque;

use wishbone_dataflow::{ExecCtx, Value, WorkFn};

use crate::fft::real_fft_magnitude_q15;
use crate::fir::{add_windows, mag_with_scale, take_even, take_odd, FirFilter};
use crate::mel::{apply_filterbank, dct_ii, log_quantize, mel_filterbank, MelFilter};
use crate::window::{apply_window_q15, dc_remove_and_pad_i16, hamming_coeffs_q15, preemphasis_q15};

fn expect_f32s<'v>(name: &str, v: &'v Value) -> &'v [f32] {
    v.as_f32s()
        .unwrap_or_else(|| panic!("{name}: expected f32 window, got {}", v.type_name()))
}

fn expect_i16s<'v>(name: &str, v: &'v Value) -> &'v [i16] {
    v.as_i16s()
        .unwrap_or_else(|| panic!("{name}: expected i16 window, got {}", v.type_name()))
}

/// Pre-emphasis in Q15 fixed point: `i16` window → `i16` window, state =
/// previous sample. Embedded front ends stay in integer math; the float
/// conversion happens at `prefilt` (this is what concentrates float cost
/// in the FFT/cepstral stages, paper Fig 8).
#[derive(Debug, Clone)]
pub struct PreEmphOp {
    alpha_q15: i16,
    prev: i16,
}

impl PreEmphOp {
    /// Standard speech pre-emphasis (`alpha` ≈ 0.97).
    pub fn new(alpha: f32) -> Self {
        PreEmphOp {
            alpha_q15: (alpha * 32768.0).round().min(32767.0) as i16,
            prev: 0,
        }
    }
}

impl WorkFn for PreEmphOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let frame = expect_i16s("preemph", input);
        let out = preemphasis_q15(frame, self.alpha_q15, &mut self.prev, cx.meter());
        cx.emit(Value::VecI16(out));
    }
}

/// Hamming window multiply in Q15 fixed point.
#[derive(Debug, Clone)]
pub struct HammingOp {
    window_q15: Vec<i16>,
}

impl HammingOp {
    /// Window of length `n` (must match the frame length).
    pub fn new(n: usize) -> Self {
        HammingOp {
            window_q15: hamming_coeffs_q15(n),
        }
    }
}

impl WorkFn for HammingOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let frame = expect_i16s("hamming", input);
        let out = apply_window_q15(frame, &self.window_q15, cx.meter());
        cx.emit(Value::VecI16(out));
    }
}

/// `prefilt`: integer DC removal + zero-pad to the FFT size (stays in
/// fixed point; the fixed-point FFT follows).
#[derive(Debug, Clone)]
pub struct PreFiltOp {
    pad_to: usize,
}

impl PreFiltOp {
    /// Pad frames to `pad_to` samples (a power of two).
    pub fn new(pad_to: usize) -> Self {
        PreFiltOp { pad_to }
    }
}

impl WorkFn for PreFiltOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let frame = expect_i16s("prefilt", input);
        let out = dc_remove_and_pad_i16(frame, self.pad_to, cx.meter());
        cx.emit(Value::VecI16(out));
    }
}

/// FFT magnitude spectrum via the Q15 fixed-point FFT:
/// `i16[n]` → `f32[n/2]` (magnitudes converted to float at the output for
/// the filterbank).
#[derive(Debug, Clone, Default)]
pub struct FftMagOp;

impl WorkFn for FftMagOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let frame = expect_i16s("fft", input);
        let mags = real_fft_magnitude_q15(frame, cx.meter());
        cx.emit(Value::VecF32(mags));
    }
}

/// Mel filterbank: spectrum → per-filter energies.
#[derive(Debug, Clone)]
pub struct FilterBankOp {
    bank: Vec<MelFilter>,
}

impl FilterBankOp {
    /// Bank of `num_filters` filters over `num_bins` magnitude bins.
    pub fn new(num_filters: usize, num_bins: usize, sample_rate: f32) -> Self {
        FilterBankOp {
            bank: mel_filterbank(num_filters, num_bins, sample_rate),
        }
    }
}

impl WorkFn for FilterBankOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let spectrum = expect_f32s("filterbank", input);
        let out = apply_filterbank(spectrum, &self.bank, cx.meter());
        cx.emit(Value::VecF32(out));
    }
}

/// Log compression + i16 quantization (data-reducing `logs` stage).
#[derive(Debug, Clone)]
pub struct LogQuantOp {
    scale: f32,
}

impl LogQuantOp {
    /// `scale` log-units per quantization step.
    pub fn new(scale: f32) -> Self {
        LogQuantOp { scale }
    }
}

impl WorkFn for LogQuantOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let energies = expect_f32s("logs", input);
        let out = log_quantize(energies, self.scale, cx.meter());
        cx.emit(Value::VecI16(out));
    }
}

/// Cepstral stage: dequantize logs, DCT, keep the first `n_out`
/// coefficients. Float-heavy — the stage that blows up on FPU-less motes
/// (paper Fig 8).
#[derive(Debug, Clone)]
pub struct CepstralOp {
    n_out: usize,
    dequant: f32,
}

impl CepstralOp {
    /// Keep `n_out` coefficients (13 in the paper); `dequant` must invert
    /// the upstream [`LogQuantOp`] scale.
    pub fn new(n_out: usize, dequant: f32) -> Self {
        CepstralOp { n_out, dequant }
    }
}

impl WorkFn for CepstralOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let logs = expect_i16s("cepstrals", input);
        let floats: Vec<f32> = logs.iter().map(|&q| f32::from(q) * self.dequant).collect();
        cx.meter().fmul(floats.len() as u64);
        cx.meter().mem(floats.len() as u64);
        let out = dct_ii(&floats, self.n_out.min(floats.len()), cx.meter());
        cx.emit(Value::VecF32(out));
    }
}

/// Even-sample extraction (`GetEven`): halves the data rate.
#[derive(Debug, Clone, Default)]
pub struct GetEvenOp;

impl WorkFn for GetEvenOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let w = expect_f32s("get_even", input);
        let out = take_even(w, cx.meter());
        cx.emit(Value::VecF32(out));
    }
}

/// Odd-sample extraction (`GetOdd`).
#[derive(Debug, Clone, Default)]
pub struct GetOddOp;

impl WorkFn for GetOddOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let w = expect_f32s("get_odd", input);
        let out = take_odd(w, cx.meter());
        cx.emit(Value::VecF32(out));
    }
}

/// Stateful windowed FIR (`FIRFilter` from paper Fig 1).
#[derive(Debug, Clone)]
pub struct FirWindowOp {
    filter: FirFilter,
}

impl FirWindowOp {
    /// Filter with the given taps.
    pub fn new(coeffs: &[f32]) -> Self {
        FirWindowOp {
            filter: FirFilter::new(coeffs),
        }
    }
}

impl WorkFn for FirWindowOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let w = expect_f32s("fir", input);
        let out = self.filter.filter_window(w, cx.meter());
        cx.emit(Value::VecF32(out));
    }
}

/// `AddOddAndEven`: two-port synchronizing element-wise add. Stateful
/// (per-port buffers).
#[derive(Debug, Clone, Default)]
pub struct AddWindowsOp {
    /// Windows waiting for their partner, per port. At most one side is
    /// ever non-empty: an arrival pairs with the other side's oldest.
    pending: [VecDeque<Vec<f32>>; 2],
}

impl WorkFn for AddWindowsOp {
    fn process(&mut self, port: usize, input: &Value, cx: &mut ExecCtx) {
        assert!(port < 2, "add: binary operator got port {port}");
        let w = expect_f32s("add", input);
        cx.meter().mem(1);
        match self.pending[1 - port].pop_front() {
            // Pair straight from the borrowed input, port 0's window first.
            Some(waiting) => {
                let (a, b) = match port {
                    0 => (w, waiting.as_slice()),
                    _ => (waiting.as_slice(), w),
                };
                let out = add_windows(a, b, cx.meter());
                cx.emit(Value::VecF32(out));
            }
            None => self.pending[port].push_back(w.to_vec()),
        }
    }
}

/// `MagWithScale`: window → scaled scalar energy (large data reduction).
#[derive(Debug, Clone)]
pub struct MagScaleOp {
    gain: f32,
}

impl MagScaleOp {
    /// Energy scaled by `gain`.
    pub fn new(gain: f32) -> Self {
        MagScaleOp { gain }
    }
}

impl WorkFn for MagScaleOp {
    fn process(&mut self, _port: usize, input: &Value, cx: &mut ExecCtx) {
        let w = expect_f32s("mag", input);
        let energy = mag_with_scale(w, self.gain, cx.meter());
        cx.emit(Value::F32(energy));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbone_dataflow::ExecCtx;

    fn run(op: &mut dyn WorkFn, port: usize, v: Value) -> Vec<Value> {
        let mut cx = ExecCtx::new();
        op.process(port, &v, &mut cx);
        cx.finish().0
    }

    #[test]
    fn speech_chain_types_line_up() {
        let frame: Vec<i16> = (0..200).map(|i| ((i * 31) % 100) as i16).collect();
        let mut pre = PreEmphOp::new(0.97);
        let out = run(&mut pre, 0, Value::VecI16(frame));
        let v1 = out.into_iter().next().unwrap();
        assert_eq!(
            v1.as_i16s().unwrap().len(),
            200,
            "fixed-point front end stays i16"
        );

        let mut ham = HammingOp::new(200);
        let v2 = run(&mut ham, 0, v1).remove(0);
        assert_eq!(v2.as_i16s().unwrap().len(), 200);

        let mut filt = PreFiltOp::new(256);
        let v3 = run(&mut filt, 0, v2).remove(0);
        assert_eq!(v3.as_i16s().unwrap().len(), 256);

        let mut fft = FftMagOp;
        let v4 = run(&mut fft, 0, v3).remove(0);
        assert_eq!(v4.as_f32s().unwrap().len(), 128);

        let mut bank = FilterBankOp::new(32, 128, 8000.0);
        let v5 = run(&mut bank, 0, v4).remove(0);
        assert_eq!(v5.as_f32s().unwrap().len(), 32);

        let mut logs = LogQuantOp::new(256.0);
        let v6 = run(&mut logs, 0, v5).remove(0);
        assert_eq!(v6.as_i16s().unwrap().len(), 32);

        let mut cep = CepstralOp::new(13, 1.0 / 256.0);
        let v7 = run(&mut cep, 0, v6).remove(0);
        assert_eq!(v7.as_f32s().unwrap().len(), 13);
    }

    #[test]
    fn speech_chain_is_data_reducing_at_paper_cutpoints() {
        // Wire sizes along the pipeline must shrink at filterbank, logs,
        // and cepstrals — the viable cutpoints of Fig 5(b).
        let frame: Vec<i16> = (0..200).map(|i| (i % 97) as i16).collect();
        let source_bytes = Value::VecI16(frame.clone()).wire_size();
        let mut pre = PreEmphOp::new(0.97);
        let v = run(&mut pre, 0, Value::VecI16(frame)).remove(0);
        let mut ham = HammingOp::new(200);
        let v = run(&mut ham, 0, v).remove(0);
        let mut filt = PreFiltOp::new(256);
        let v = run(&mut filt, 0, v).remove(0);
        let mut fft = FftMagOp;
        let v = run(&mut fft, 0, v).remove(0);
        let mut bank = FilterBankOp::new(32, 128, 8000.0);
        let v = run(&mut bank, 0, v).remove(0);
        let filtbank_bytes = v.wire_size();
        let mut logs = LogQuantOp::new(256.0);
        let v = run(&mut logs, 0, v).remove(0);
        let logs_bytes = v.wire_size();
        let mut cep = CepstralOp::new(13, 1.0 / 256.0);
        let v = run(&mut cep, 0, v).remove(0);
        let cep_bytes = v.wire_size();

        assert!(
            filtbank_bytes < source_bytes / 2,
            "{filtbank_bytes} vs {source_bytes}"
        );
        assert!(logs_bytes < filtbank_bytes);
        assert!(cep_bytes < logs_bytes);
    }

    #[test]
    fn add_windows_op_synchronizes_ports() {
        let mut add = AddWindowsOp::default();
        assert!(run(&mut add, 0, Value::VecF32(vec![1.0, 2.0])).is_empty());
        let out = run(&mut add, 1, Value::VecF32(vec![10.0, 20.0]));
        assert_eq!(out, vec![Value::VecF32(vec![11.0, 22.0])]);
        // Windows queue per port and pair oldest first, from either side.
        let mut add = AddWindowsOp::default();
        assert!(run(&mut add, 1, Value::VecF32(vec![1.0, 2.0, 3.0])).is_empty());
        assert!(run(&mut add, 1, Value::VecF32(vec![4.0])).is_empty());
        let first = run(&mut add, 0, Value::VecF32(vec![10.0, 20.0]));
        let second = run(&mut add, 0, Value::VecF32(vec![30.0, 40.0]));
        assert!(run(&mut add, 0, Value::VecF32(vec![50.0])).is_empty());
        let third = run(&mut add, 1, Value::VecF32(vec![5.0, 6.0]));
        assert_eq!(
            [first, second, third].concat(),
            vec![
                Value::VecF32(vec![11.0, 22.0]),
                Value::VecF32(vec![34.0]),
                Value::VecF32(vec![55.0]),
            ]
        );
    }

    #[test]
    fn even_odd_and_mag_ops() {
        let mut e = GetEvenOp;
        let mut o = GetOddOp;
        let w = Value::VecF32(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            run(&mut e, 0, w.clone()),
            vec![Value::VecF32(vec![1.0, 3.0])]
        );
        assert_eq!(run(&mut o, 0, w), vec![Value::VecF32(vec![2.0, 4.0])]);
        let mut m = MagScaleOp::new(0.5);
        assert_eq!(
            run(&mut m, 0, Value::VecF32(vec![2.0, 2.0])),
            vec![Value::F32(4.0)]
        );
    }

    #[test]
    #[should_panic(expected = "expected i16 window")]
    fn type_mismatch_panics_with_op_name() {
        let mut fft = FftMagOp;
        let _ = run(&mut fft, 0, Value::I16(3));
    }
}
