//! Property tests on the DSP kernels: FFT vs a naive DFT reference, Q15 vs
//! float agreement, FIR linearity, the FIR window kernel against its
//! per-sample reference, and DCT energy bounds.

use proptest::prelude::*;
use wishbone_dataflow::Meter;
use wishbone_dsp::{dct_ii, fft_in_place, real_fft_magnitude, real_fft_magnitude_q15, FirFilter};

/// Naive O(n²) DFT magnitude for reference.
fn dft_magnitude(signal: &[f32]) -> Vec<f32> {
    let n = signal.len();
    (0..n / 2)
        .map(|k| {
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for (i, &x) in signal.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64;
                re += f64::from(x) * ang.cos();
                im += f64::from(x) * ang.sin();
            }
            ((re * re + im * im).sqrt()) as f32
        })
        .collect()
}

fn signal_strategy(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1000.0f32..1000.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_matches_naive_dft(signal in signal_strategy(64)) {
        let fast = real_fft_magnitude(&signal, &mut Meter::new());
        let slow = dft_magnitude(&signal);
        let scale = slow.iter().cloned().fold(1.0f32, f32::max);
        for (k, (f, s)) in fast.iter().zip(&slow).enumerate() {
            prop_assert!((f - s).abs() <= 1e-3 * scale + 1e-2, "bin {k}: fft {f} vs dft {s}");
        }
    }

    #[test]
    fn q15_fft_tracks_float_fft(raw in prop::collection::vec(-12_000i16..12_000, 128)) {
        let floats: Vec<f32> = raw.iter().map(|&s| f32::from(s)).collect();
        let fm = real_fft_magnitude(&floats, &mut Meter::new());
        let qm = real_fft_magnitude_q15(&raw, &mut Meter::new());
        let peak = fm.iter().cloned().fold(1.0f32, f32::max);
        for (k, (f, q)) in fm.iter().zip(&qm).enumerate() {
            // Q15 guaranteed scaling costs ~7 bits of precision at n=128.
            prop_assert!(
                (f - q).abs() <= 0.08 * peak + 400.0,
                "bin {k}: float {f} vs q15 {q} (peak {peak})"
            );
        }
    }

    #[test]
    fn fft_linearity(a in signal_strategy(32), b in signal_strategy(32)) {
        let tx = |s: &[f32]| {
            let mut re = s.to_vec();
            let mut im = vec![0.0f32; s.len()];
            fft_in_place(&mut re, &mut im, &mut Meter::new());
            (re, im)
        };
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let (ar, ai) = tx(&a);
        let (br, bi) = tx(&b);
        let (sr, si) = tx(&sum);
        let scale = ar.iter().chain(&br).map(|x| x.abs()).fold(1.0f32, f32::max);
        for k in 0..32 {
            prop_assert!((sr[k] - (ar[k] + br[k])).abs() <= 1e-3 * scale + 1e-2);
            prop_assert!((si[k] - (ai[k] + bi[k])).abs() <= 1e-3 * scale + 1e-2);
        }
    }

    #[test]
    fn fir_is_linear_and_time_invariant(
        taps in prop::collection::vec(-2.0f32..2.0, 1..6),
        x in signal_strategy(40),
    ) {
        // Linearity: filter(2x) = 2 * filter(x) from the same initial state.
        let mut f1 = FirFilter::new(&taps);
        let mut f2 = FirFilter::new(&taps);
        let y1 = f1.filter_window(&x, &mut Meter::new());
        let x2: Vec<f32> = x.iter().map(|v| v * 2.0).collect();
        let y2 = f2.filter_window(&x2, &mut Meter::new());
        let scale = y1.iter().map(|v| v.abs()).fold(1.0f32, f32::max);
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((2.0 * a - b).abs() <= 1e-3 * scale + 1e-3);
        }
        // Time invariance: prepending zeros delays the output.
        let mut f3 = FirFilter::new(&taps);
        let delayed_in: Vec<f32> = std::iter::repeat_n(0.0, 3).chain(x.iter().copied()).collect();
        let y3 = f3.filter_window(&delayed_in, &mut Meter::new());
        for (i, a) in y1.iter().take(20).enumerate() {
            prop_assert!((a - y3[i + 3]).abs() <= 1e-3 * scale + 1e-3);
        }
    }

    #[test]
    fn fir_window_kernel_equals_the_per_sample_loop(
        taps in prop::collection::vec(-2.0f32..2.0, 1..7),
        x in signal_strategy(72),
        lens in prop::collection::vec(0usize..20, 1..8),
    ) {
        // Consecutive windows of the signal, the remainder last; empty
        // windows included.
        let mut windows = Vec::new();
        let mut rest = x.as_slice();
        for &len in &lens {
            let (w, tail) = rest.split_at(len.min(rest.len()));
            windows.push(w);
            rest = tail;
        }
        windows.push(rest);
        let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let (mut kernel, mut km) = (FirFilter::new(&taps), Meter::new());
        let (mut stepped, mut sm) = (FirFilter::new(&taps), Meter::new());
        for w in windows {
            let fast = kernel.filter_window(w, &mut km);
            // The per-sample loop, metered as one loop scope per window.
            let slow: Vec<f32> = sm.loop_scope(w.len() as u64, |m| {
                w.iter().map(|&s| stepped.step(s, m)).collect()
            });
            prop_assert_eq!(bits(&fast), bits(&slow));
            prop_assert_eq!(bits(kernel.history()), bits(stepped.history()));
            prop_assert_eq!(km.counts(), sm.counts());
        }
    }

    #[test]
    fn dct_truncation_energy_bounded(x in signal_strategy(32)) {
        // Orthonormal DCT: energy of any prefix of coefficients is bounded
        // by the signal energy (Bessel's inequality).
        let full_energy: f32 = x.iter().map(|v| v * v).sum();
        for k in [1usize, 4, 13, 32] {
            let coeffs = dct_ii(&x, k, &mut Meter::new());
            let e: f32 = coeffs.iter().map(|v| v * v).sum();
            prop_assert!(e <= full_energy * 1.001 + 1e-3, "k={k}: {e} > {full_energy}");
        }
    }

    #[test]
    fn metering_is_deterministic(signal in signal_strategy(64)) {
        let count = |s: &[f32]| {
            let mut m = Meter::new();
            let _ = real_fft_magnitude(s, &mut m);
            m.counts().total()
        };
        prop_assert_eq!(count(&signal), count(&signal));
        // And input-value independent (data-oblivious kernel).
        let other: Vec<f32> = signal.iter().map(|v| v * 0.5 + 1.0).collect();
        prop_assert_eq!(count(&signal), count(&other));
    }
}
