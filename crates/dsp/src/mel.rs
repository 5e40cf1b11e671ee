//! Mel filterbank, log compression, and DCT — the back half of the MFCC
//! pipeline (paper §6.2.1).
//!
//! "We first compute the spectrum ... summarize it using a bank of
//! overlapping filters ... a 4X data reduction ... convert this
//! reduced-resolution spectrum from a linear to a log spectrum ... compute
//! the MFCCs as the first 13 coefficients of the DCT."

use wishbone_dataflow::Meter;

/// Hz → mel.
pub(crate) fn hz_to_mel(hz: f32) -> f32 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// mel → Hz.
pub(crate) fn mel_to_hz(mel: f32) -> f32 {
    700.0 * (10f32.powf(mel / 2595.0) - 1.0)
}

/// A triangular mel filter stored sparsely as `(first_bin, weights)`.
#[derive(Debug, Clone)]
pub(crate) struct MelFilter {
    /// Index of the first FFT bin this filter touches.
    first_bin: usize,
    /// Triangle weights for consecutive bins starting at `first_bin`.
    weights: Vec<f32>,
}

/// Build a bank of `num_filters` triangular filters over `num_bins`
/// magnitude bins of a `sample_rate` signal.
pub(crate) fn mel_filterbank(
    num_filters: usize,
    num_bins: usize,
    sample_rate: f32,
) -> Vec<MelFilter> {
    assert!(num_filters >= 1 && num_bins >= 4);
    let f_max = sample_rate / 2.0;
    let mel_max = hz_to_mel(f_max);
    // num_filters triangles need num_filters + 2 edge points.
    let edges: Vec<f32> = (0..num_filters + 2)
        .map(|i| mel_to_hz(mel_max * i as f32 / (num_filters + 1) as f32))
        .collect();
    let bin_of = |hz: f32| -> f32 { hz / f_max * (num_bins as f32 - 1.0) };

    let mut bank = Vec::with_capacity(num_filters);
    for f in 0..num_filters {
        let (lo, mid, hi) = (bin_of(edges[f]), bin_of(edges[f + 1]), bin_of(edges[f + 2]));
        let first = lo.ceil() as usize;
        let last = (hi.floor() as usize).min(num_bins - 1);
        let mut weights = Vec::new();
        for b in first..=last {
            let x = b as f32;
            let w = if x <= mid {
                if mid > lo {
                    (x - lo) / (mid - lo)
                } else {
                    1.0
                }
            } else if hi > mid {
                (hi - x) / (hi - mid)
            } else {
                1.0
            };
            weights.push(w.max(0.0));
        }
        if weights.is_empty() {
            // Degenerate (very narrow) triangle: take the nearest bin.
            weights.push(1.0);
        }
        bank.push(MelFilter {
            first_bin: first.min(num_bins - 1),
            weights,
        });
    }
    bank
}

/// Apply the filterbank to a magnitude spectrum, producing one energy per
/// filter (metered).
pub(crate) fn apply_filterbank(
    spectrum: &[f32],
    bank: &[MelFilter],
    meter: &mut Meter,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(bank.len());
    for filt in bank {
        let energy = meter.loop_scope(filt.weights.len() as u64, |meter| {
            meter.fmul(filt.weights.len() as u64);
            meter.fadd(filt.weights.len() as u64);
            meter.mem(2 * filt.weights.len() as u64);
            filt.weights
                .iter()
                .enumerate()
                .map(|(i, w)| w * spectrum.get(filt.first_bin + i).copied().unwrap_or(0.0))
                .sum::<f32>()
        });
        out.push(energy);
    }
    out
}

/// Log-compress energies and quantize to i16 fixed point (`scale` log-units
/// per bit). The paper's `logs` stage makes convolutional components
/// additive; quantizing is what makes the stage data-*reducing* so it shows
/// up as a viable cutpoint in Fig 5(b).
pub(crate) fn log_quantize(energies: &[f32], scale: f32, meter: &mut Meter) -> Vec<i16> {
    meter.loop_scope(energies.len() as u64, |meter| {
        meter.transcendental(energies.len() as u64);
        meter.fmul(energies.len() as u64);
        meter.mem(energies.len() as u64);
        energies
            .iter()
            .map(|&e| {
                let db = (e.max(1e-10)).ln() * scale;
                db.clamp(f32::from(i16::MIN), f32::from(i16::MAX)) as i16
            })
            .collect()
    })
}

/// DCT-II: first `k` coefficients of the input sequence (metered).
/// Orthonormal scaling.
pub fn dct_ii(input: &[f32], k: usize, meter: &mut Meter) -> Vec<f32> {
    let n = input.len();
    assert!(k <= n && n > 0);
    let mut out = Vec::with_capacity(k);
    meter.loop_scope((k * n) as u64, |meter| {
        meter.transcendental((k * n) as u64);
        meter.fmul(2 * (k * n) as u64);
        meter.fadd((k * n) as u64);
        meter.mem((k * n) as u64);
        for j in 0..k {
            let mut acc = 0.0f32;
            for (i, &x) in input.iter().enumerate() {
                acc += x * (std::f32::consts::PI / n as f32 * (i as f32 + 0.5) * j as f32).cos();
            }
            let norm = if j == 0 {
                (1.0 / n as f32).sqrt()
            } else {
                (2.0 / n as f32).sqrt()
            };
            out.push(acc * norm);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mel_scale_roundtrip() {
        for hz in [0.0f32, 100.0, 1000.0, 4000.0] {
            let back = mel_to_hz(hz_to_mel(hz));
            assert!((back - hz).abs() < 0.5, "{hz} -> {back}");
        }
        // Mel is monotone and compressive at high frequencies.
        assert!(hz_to_mel(2000.0) - hz_to_mel(1000.0) < hz_to_mel(1000.0) - hz_to_mel(0.0));
    }

    #[test]
    fn filterbank_covers_spectrum() {
        let bank = mel_filterbank(32, 128, 8000.0);
        assert_eq!(bank.len(), 32);
        // Filters are ordered and within range.
        for f in &bank {
            assert!(f.first_bin < 128);
            assert!(f.first_bin + f.weights.len() <= 129);
            assert!(f.weights.iter().all(|&w| (0.0..=1.0 + 1e-5).contains(&w)));
        }
        // A flat spectrum produces all-positive energies.
        let spectrum = vec![1.0f32; 128];
        let out = apply_filterbank(&spectrum, &bank, &mut Meter::new());
        assert!(out.iter().all(|&e| e > 0.0));
    }

    #[test]
    fn filterbank_localizes_energy() {
        let bank = mel_filterbank(16, 128, 8000.0);
        // Energy only in high bins should excite only high filters.
        let mut spectrum = vec![0.0f32; 128];
        for s in spectrum[100..].iter_mut() {
            *s = 1.0;
        }
        let out = apply_filterbank(&spectrum, &bank, &mut Meter::new());
        let lo: f32 = out[..4].iter().sum();
        let hi: f32 = out[12..].iter().sum();
        assert!(hi > lo * 10.0, "hi={hi} lo={lo}");
    }

    #[test]
    fn log_quantize_is_monotone_and_bounded() {
        let m = &mut Meter::new();
        let out = log_quantize(&[1e-3, 1.0, 1e3, 1e30], 100.0, m);
        for w in out.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(out[1], 0); // ln(1) = 0
    }

    #[test]
    fn dct_of_constant_is_impulse() {
        let out = dct_ii(&[1.0; 16], 8, &mut Meter::new());
        assert!(out[0] > 0.0);
        for &c in &out[1..] {
            assert!(c.abs() < 1e-4, "higher DCT coeff {c} should vanish");
        }
    }

    #[test]
    fn dct_orthogonality_energy() {
        // DCT-II with orthonormal scaling preserves energy when k = n.
        let x: Vec<f32> = (0..16).map(|i| ((i * 13 % 7) as f32 - 3.0) / 3.0).collect();
        let y = dct_ii(&x, 16, &mut Meter::new());
        let ex: f32 = x.iter().map(|v| v * v).sum();
        let ey: f32 = y.iter().map(|v| v * v).sum();
        assert!((ex - ey).abs() / ex < 1e-3, "{ex} vs {ey}");
    }

    #[test]
    fn dct_truncation_prefix_consistent() {
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.7).sin()).collect();
        let full = dct_ii(&x, 32, &mut Meter::new());
        let head = dct_ii(&x, 13, &mut Meter::new());
        for (a, b) in head.iter().zip(&full) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
