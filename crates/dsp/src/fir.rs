//! FIR filtering and the polyphase wavelet decomposition filters used by
//! the EEG application (paper Fig 1 and §6.1).
//!
//! The EEG filtering structure "first extracts the odd and even portions of
//! the signal, passes each signal through a 4-tap FIR filter, then adds the
//! two signals together", cascaded over 7 levels; depending on the
//! coefficients it is a low-pass or a high-pass stage, and "at each level,
//! the amount of data is halved".

use wishbone_dataflow::Meter;

/// Stateful FIR filter: history persists across calls (the paper's
/// `FIRFilter` keeps its FIFO between invocations, making the operator
/// stateful — which matters for relocation, §2.1.1).
#[derive(Debug, Clone)]
pub struct FirFilter {
    coeffs: Vec<f32>,
    /// Delay line, most recent sample last.
    hist: Vec<f32>,
    /// `hist ++ window` for [`FirFilter::filter_window`], kept between
    /// calls so a window allocates only its output.
    scratch: Vec<f32>,
}

impl FirFilter {
    /// New filter with the given taps (history zero-initialised, like the
    /// paper's `for i = 1 to N-1 { FIFO:enqueue(fifo, 0) }`).
    pub fn new(coeffs: &[f32]) -> Self {
        assert!(!coeffs.is_empty());
        FirFilter {
            coeffs: coeffs.to_vec(),
            hist: vec![0.0; coeffs.len()],
            scratch: Vec::new(),
        }
    }

    /// The delay line, oldest sample first.
    pub fn history(&self) -> &[f32] {
        &self.hist
    }

    /// Filter one sample: the reference [`FirFilter::filter_window`] is
    /// held to.
    pub fn step(&mut self, x: f32, meter: &mut Meter) -> f32 {
        self.hist.rotate_left(1);
        *self.hist.last_mut().expect("non-empty history") = x;
        let n = self.coeffs.len() as u64;
        meter.fmul(n);
        meter.fadd(n);
        meter.mem(2 * n);
        // y[n] = Σₖ c[k] · x[n-k]: c[0] pairs the newest sample (history is
        // stored oldest-first, so walk it in reverse).
        self.coeffs
            .iter()
            .zip(self.hist.iter().rev())
            .map(|(c, h)| c * h)
            .sum()
    }

    /// Filter a window of samples (metered as one loop, so the TinyOS task
    /// splitter sees it as divisible).
    ///
    /// One direct-form pass over `history ++ window`: output `i` is
    /// [`FirFilter::step`]'s dot product over the `n` samples ending at
    /// `window[i]`, in the same product and summation order, and the last
    /// `n` samples become the history. So every output, the carried
    /// history and the `OpCounts` equal the per-sample loop's bit for bit;
    /// debug builds run that loop beside it and assert so.
    pub fn filter_window(&mut self, window: &[f32], meter: &mut Meter) -> Vec<f32> {
        #[cfg(debug_assertions)]
        let reference = {
            let (mut f, mut m) = (self.clone(), Meter::new());
            let out: Vec<f32> = m.loop_scope(window.len() as u64, |m| {
                window.iter().map(|&x| f.step(x, m)).collect()
            });
            (out, f.hist, meter.counts() + m.counts())
        };

        let (n, len) = (self.coeffs.len(), window.len());
        let out = meter.loop_scope(len as u64, |meter| {
            let per_window = (n * len) as u64;
            meter.fmul(per_window);
            meter.fadd(per_window);
            meter.mem(2 * per_window);
            let line = &mut self.scratch;
            line.clear();
            line.extend_from_slice(&self.hist);
            line.extend_from_slice(window);
            let out: Vec<f32> = line[1..]
                .windows(n)
                .map(|taps| {
                    self.coeffs
                        .iter()
                        .zip(taps.iter().rev())
                        .map(|(c, h)| c * h)
                        .sum()
                })
                .collect();
            self.hist.copy_from_slice(&line[len..]);
            out
        });

        #[cfg(debug_assertions)]
        {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (ref_out, ref_hist, ref_counts) = reference;
            debug_assert_eq!(bits(&out), bits(&ref_out), "filter_window outputs");
            debug_assert_eq!(bits(&self.hist), bits(&ref_hist), "filter_window history");
            debug_assert_eq!(meter.counts(), ref_counts, "filter_window op counts");
        }
        out
    }

    /// Reset the delay line to zeros.
    pub fn reset(&mut self) {
        self.hist.iter_mut().for_each(|h| *h = 0.0);
    }
}

/// Even-indexed samples of a window (half-rate polyphase branch): an odd
/// window has one more of them than odd ones, and is metered for it.
pub fn take_even(window: &[f32], meter: &mut Meter) -> Vec<f32> {
    let copied = window.len().div_ceil(2) as u64;
    meter.loop_scope(copied, |meter| {
        meter.mem(copied);
        window.iter().step_by(2).copied().collect()
    })
}

/// Odd-indexed samples of a window.
pub fn take_odd(window: &[f32], meter: &mut Meter) -> Vec<f32> {
    meter.loop_scope((window.len() / 2) as u64, |meter| {
        meter.mem(window.len() as u64 / 2);
        window.iter().skip(1).step_by(2).copied().collect()
    })
}

/// Element-wise sum of two windows, truncated to the shorter length
/// (`AddOddAndEven` in the paper's pseudocode).
pub fn add_windows(a: &[f32], b: &[f32], meter: &mut Meter) -> Vec<f32> {
    let n = a.len().min(b.len());
    meter.loop_scope(n as u64, |meter| {
        meter.fadd(n as u64);
        meter.mem(2 * n as u64);
        a.iter().zip(b).take(n).map(|(x, y)| x + y).collect()
    })
}

/// 4-tap polyphase low-pass halves: applied to the even and odd branches
/// respectively (Daubechies-2 scaling taps split into phases).
pub const H_LOW_EVEN: [f32; 4] = [0.482_962_9, 0.224_143_86, 0.0, 0.0];
/// Odd-branch low-pass taps.
pub const H_LOW_ODD: [f32; 4] = [0.836_516_3, -0.129_409_52, 0.0, 0.0];
/// Even-branch high-pass taps (Daubechies-2 wavelet taps, even phase).
pub const H_HIGH_EVEN: [f32; 4] = [-0.129_409_52, -0.482_962_9, 0.0, 0.0];
/// Odd-branch high-pass taps.
pub const H_HIGH_ODD: [f32; 4] = [0.836_516_3, -0.224_143_86, 0.0, 0.0];

/// Scaled signal energy: `gain · Σ x²` over a window (`MagWithScale`).
pub fn mag_with_scale(window: &[f32], gain: f32, meter: &mut Meter) -> f32 {
    meter.loop_scope(window.len() as u64, |meter| {
        meter.fmul(window.len() as u64 + 1);
        meter.fadd(window.len() as u64);
        meter.mem(window.len() as u64);
        gain * window.iter().map(|x| x * x).sum::<f32>()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_response_equals_taps() {
        let mut f = FirFilter::new(&[0.5, 0.25, 0.125]);
        let mut m = Meter::new();
        let mut input = vec![0.0f32; 5];
        input[0] = 1.0;
        let out = f.filter_window(&input, &mut m);
        assert_eq!(&out[..3], &[0.5, 0.25, 0.125]);
        assert_eq!(&out[3..], &[0.0, 0.0]);
    }

    #[test]
    fn state_persists_across_windows() {
        let mut f = FirFilter::new(&[1.0, 1.0]);
        let mut m = Meter::new();
        let a = f.filter_window(&[1.0], &mut m);
        assert_eq!(a, vec![1.0]);
        // The 1.0 is still in the delay line.
        let b = f.filter_window(&[0.0], &mut m);
        assert_eq!(b, vec![1.0]);
        f.reset();
        let c = f.filter_window(&[0.0], &mut m);
        assert_eq!(c, vec![0.0]);
    }

    #[test]
    fn even_odd_split_partitions_window() {
        let mut m = Meter::new();
        let w = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(take_even(&w, &mut m), vec![0.0, 2.0, 4.0]);
        assert_eq!(take_odd(&w, &mut m), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn an_odd_window_is_metered_for_what_it_copies() {
        use wishbone_dataflow::OpClass;
        let w = [0.0, 1.0, 2.0, 3.0, 4.0];
        // (copied, Mem, Mem in loops, loop iterations, loops entered)
        let metered = |take: fn(&[f32], &mut Meter) -> Vec<f32>| {
            let mut m = Meter::new();
            let copied = take(&w, &mut m).len();
            let c = m.counts();
            let mem = (c.get(OpClass::Mem), c.get_in_loops(OpClass::Mem));
            (copied, mem.0, mem.1, c.loop_iters, c.loops_entered)
        };
        assert_eq!(metered(take_even), (3, 3, 3, 3, 1));
        assert_eq!(metered(take_odd), (2, 2, 2, 2, 1));
    }

    #[test]
    fn add_windows_truncates() {
        let mut m = Meter::new();
        assert_eq!(
            add_windows(&[1.0, 2.0, 9.0], &[3.0, 4.0], &mut m),
            vec![4.0, 6.0]
        );
    }

    #[test]
    fn low_pass_attenuates_alternating_signal() {
        // Polyphase low-pass stage: even/odd split, filter, sum. For a
        // Nyquist-rate alternating signal the low branch should emit much
        // less energy than for a DC signal.
        let run = |signal: &[f32]| {
            let mut m = Meter::new();
            let even = take_even(signal, &mut m);
            let odd = take_odd(signal, &mut m);
            let mut fe = FirFilter::new(&H_LOW_EVEN);
            let mut fo = FirFilter::new(&H_LOW_ODD);
            let le = fe.filter_window(&even, &mut m);
            let lo = fo.filter_window(&odd, &mut m);
            let sum = add_windows(&le, &lo, &mut m);
            mag_with_scale(&sum, 1.0, &mut m)
        };
        let dc = vec![1.0f32; 64];
        let nyquist: Vec<f32> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let e_dc = run(&dc);
        let e_ny = run(&nyquist);
        assert!(
            e_dc > 10.0 * e_ny,
            "low-pass: dc energy {e_dc}, nyquist energy {e_ny}"
        );
    }

    #[test]
    fn high_pass_does_the_opposite() {
        let run = |signal: &[f32]| {
            let mut m = Meter::new();
            let even = take_even(signal, &mut m);
            let odd = take_odd(signal, &mut m);
            let mut fe = FirFilter::new(&H_HIGH_EVEN);
            let mut fo = FirFilter::new(&H_HIGH_ODD);
            let he = fe.filter_window(&even, &mut m);
            let ho = fo.filter_window(&odd, &mut m);
            let sum = add_windows(&he, &ho, &mut m);
            mag_with_scale(&sum, 1.0, &mut m)
        };
        let dc = vec![1.0f32; 64];
        let nyquist: Vec<f32> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(run(&nyquist) > 10.0 * run(&dc));
    }

    #[test]
    fn mag_with_scale_basic() {
        let mut m = Meter::new();
        let e = mag_with_scale(&[3.0, 4.0], 2.0, &mut m);
        assert!((e - 50.0).abs() < 1e-6);
    }
}
