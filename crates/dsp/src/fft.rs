//! Radix-2 FFT with abstract-operation metering.
//!
//! The MFCC front end computes a spectrum per frame (§6.2.1). The kernel
//! below is a textbook iterative radix-2 Cooley–Tukey transform; it meters
//! every butterfly so the profiler sees the true `N log N` float cost that
//! dominates mote CPU budgets (paper Fig 7: the FFT and cepstral stages are
//! the expensive ones).

use wishbone_dataflow::Meter;

/// In-place complex FFT over `re`/`im` (lengths must match and be a power
/// of two). Forward transform, no normalization.
///
/// # Panics
/// If the lengths differ or are not a power of two.
pub fn fft_in_place(re: &mut [f32], im: &mut [f32], meter: &mut Meter) {
    let n = re.len();
    assert_eq!(n, im.len(), "re/im length mismatch");
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    meter.loop_scope(n as u64, |meter| {
        let mut j = 0usize;
        for i in 0..n {
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
                meter.mem(4);
            }
            let mut m = n >> 1;
            while m >= 1 && j & m != 0 {
                j ^= m;
                m >>= 1;
                meter.int(2);
            }
            j |= m;
            meter.int(2);
        }
    });

    // Butterfly stages.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f32::consts::PI / len as f32;
        let (wr, wi) = (ang.cos(), ang.sin());
        meter.transcendental(2);
        meter.loop_scope((n / len * len / 2) as u64, |meter| {
            let mut i = 0;
            while i < n {
                let (mut cr, mut ci) = (1.0f32, 0.0f32);
                for k in 0..len / 2 {
                    let a = i + k;
                    let b = i + k + len / 2;
                    let tr = re[b] * cr - im[b] * ci;
                    let ti = re[b] * ci + im[b] * cr;
                    re[b] = re[a] - tr;
                    im[b] = im[a] - ti;
                    re[a] += tr;
                    im[a] += ti;
                    // Twiddle advance: (cr, ci) *= (wr, wi).
                    let ncr = cr * wr - ci * wi;
                    ci = cr * wi + ci * wr;
                    cr = ncr;
                    meter.fmul(8);
                    meter.fadd(8);
                    meter.mem(8);
                }
                i += len;
            }
        });
        len <<= 1;
    }
}

/// Magnitude spectrum of a real signal: returns `n/2` magnitudes
/// (bins `0 .. n/2`), metering the FFT plus the square roots.
pub fn real_fft_magnitude(signal: &[f32], meter: &mut Meter) -> Vec<f32> {
    let n = signal.len();
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    let mut re = signal.to_vec();
    let mut im = vec![0.0f32; n];
    meter.mem(2 * n as u64);
    fft_in_place(&mut re, &mut im, meter);
    let half = n / 2;
    let mut mags = Vec::with_capacity(half);
    meter.loop_scope(half as u64, |meter| {
        for k in 0..half {
            mags.push((re[k] * re[k] + im[k] * im[k]).sqrt());
            meter.fmul(2);
            meter.fadd(1);
            meter.sqrt(1);
        }
    });
    mags
}

/// Q15 block-floating-point radix-2 FFT over i32 working registers with
/// i16 twiddles. Inputs are shifted right by one on every stage
/// (guaranteed-scaling), so the result equals `FFT(x) / n`; the function
/// returns the total scale shifts applied. This is the standard
/// fixed-point FFT used on FPU-less microcontrollers — it keeps the mote's
/// FFT in cheap integer multiplies, concentrating float cost in the
/// cepstral stage (paper Fig 8).
pub(crate) fn fft_q15_in_place(re: &mut [i32], im: &mut [i32], meter: &mut Meter) -> u32 {
    let n = re.len();
    assert_eq!(n, im.len(), "re/im length mismatch");
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    if n <= 1 {
        return 0;
    }

    // Bit-reversal permutation.
    meter.loop_scope(n as u64, |meter| {
        let mut j = 0usize;
        for i in 0..n {
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
                meter.mem(4);
            }
            let mut m = n >> 1;
            while m >= 1 && j & m != 0 {
                j ^= m;
                m >>= 1;
                meter.int(2);
            }
            j |= m;
            meter.int(2);
        }
    });

    // Q15 twiddle table for the half circle (table build cost is a
    // one-time constant in real firmware; meter only the lookups below).
    let half = n / 2;
    let twiddles: Vec<(i32, i32)> = (0..half)
        .map(|k| {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            (
                ((ang.cos() * 32767.0).round()) as i32,
                ((ang.sin() * 32767.0).round()) as i32,
            )
        })
        .collect();

    let mut shifts = 0u32;
    let mut len = 2;
    while len <= n {
        // Guaranteed scaling: halve everything before the stage.
        meter.loop_scope(n as u64, |meter| {
            meter.int(2 * n as u64);
            meter.mem(2 * n as u64);
            for v in re.iter_mut() {
                *v >>= 1;
            }
            for v in im.iter_mut() {
                *v >>= 1;
            }
        });
        shifts += 1;

        let stride = n / len;
        meter.loop_scope((n / len * len / 2) as u64, |meter| {
            let mut i = 0;
            while i < n {
                for k in 0..len / 2 {
                    let (wr, wi) = twiddles[k * stride];
                    let a = i + k;
                    let b = i + k + len / 2;
                    // Complex multiply in Q15: 4 integer multiplies.
                    let tr = (wr * re[b] - wi * im[b]) >> 15;
                    let ti = (wr * im[b] + wi * re[b]) >> 15;
                    re[b] = re[a] - tr;
                    im[b] = im[a] - ti;
                    re[a] += tr;
                    im[a] += ti;
                    meter.imul(4);
                    meter.int(8);
                    meter.mem(10);
                }
                i += len;
            }
        });
        len <<= 1;
    }
    shifts
}

/// Integer square root of a u64 (binary restoring method, metered by the
/// caller as part of the magnitude loop).
pub(crate) fn isqrt_u64(x: u64) -> u64 {
    if x == 0 {
        return 0;
    }
    let mut r = 0u64;
    let msb = 63 - u64::from(x.leading_zeros());
    let mut bit = 1u64 << (msb & !1); // largest power of four <= x
    let mut x = x;
    while bit != 0 {
        if x >= r + bit {
            x -= r + bit;
            r = (r >> 1) + bit;
        } else {
            r >>= 1;
        }
        bit >>= 2;
    }
    r
}

/// Magnitude spectrum of a real i16 signal via the fixed-point FFT:
/// returns `n/2` magnitudes rescaled to the same range as
/// [`real_fft_magnitude`] (float conversion happens once at the output,
/// costing `n/2` integer ops).
pub fn real_fft_magnitude_q15(signal: &[i16], meter: &mut Meter) -> Vec<f32> {
    let n = signal.len();
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    let mut re: Vec<i32> = signal.iter().map(|&s| i32::from(s)).collect();
    let mut im = vec![0i32; n];
    meter.mem(2 * n as u64);
    let shifts = fft_q15_in_place(&mut re, &mut im, meter);
    let scale = (1u64 << shifts) as f32;
    let half = n / 2;
    let mut mags = Vec::with_capacity(half);
    meter.loop_scope(half as u64, |meter| {
        meter.imul(2 * half as u64);
        meter.int(34 * half as u64); // isqrt ~32 iterations of shifts/adds
        meter.mem(2 * half as u64);
        for k in 0..half {
            let e =
                (i64::from(re[k]) * i64::from(re[k]) + i64::from(im[k]) * i64::from(im[k])) as u64;
            mags.push(isqrt_u64(e) as f32 * scale);
        }
    });
    mags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> Meter {
        Meter::new()
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut signal = vec![0.0f32; 64];
        signal[0] = 1.0;
        let mags = real_fft_magnitude(&signal, &mut meter());
        assert_eq!(mags.len(), 32);
        for &m in &mags {
            assert!((m - 1.0).abs() < 1e-5, "impulse bin magnitude {m}");
        }
    }

    #[test]
    fn sinusoid_peaks_at_its_bin() {
        let n = 128;
        let k0 = 7;
        let signal: Vec<f32> = (0..n)
            .map(|i| (2.0 * std::f32::consts::PI * k0 as f32 * i as f32 / n as f32).sin())
            .collect();
        let mags = real_fft_magnitude(&signal, &mut meter());
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, k0);
        // Peak of a unit sinusoid over n samples is n/2.
        assert!((mags[k0] - n as f32 / 2.0).abs() / (n as f32 / 2.0) < 1e-3);
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 64;
        let signal: Vec<f32> = (0..n).map(|i| ((i * 37 % 11) as f32 - 5.0) / 5.0).collect();
        let mut re = signal.clone();
        let mut im = vec![0.0f32; n];
        fft_in_place(&mut re, &mut im, &mut meter());
        let time_energy: f32 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f32 =
            re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum::<f32>() / n as f32;
        assert!(
            (time_energy - freq_energy).abs() / time_energy < 1e-4,
            "Parseval violated: {time_energy} vs {freq_energy}"
        );
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32 * 1.1).cos()).collect();
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();

        let tx = |s: &[f32]| {
            let mut re = s.to_vec();
            let mut im = vec![0.0f32; s.len()];
            fft_in_place(&mut re, &mut im, &mut Meter::new());
            (re, im)
        };
        let (ar, ai) = tx(&a);
        let (br, bi) = tx(&b);
        let (sr, si) = tx(&sum);
        for k in 0..n {
            assert!((sr[k] - (ar[k] + br[k])).abs() < 1e-3);
            assert!((si[k] - (ai[k] + bi[k])).abs() < 1e-3);
        }
    }

    #[test]
    fn metering_scales_superlinearly() {
        let cost = |n: usize| {
            let mut m = Meter::new();
            let signal = vec![1.0f32; n];
            let _ = real_fft_magnitude(&signal, &mut m);
            m.counts().total()
        };
        let c64 = cost(64);
        let c256 = cost(256);
        // N log N: quadrupling N should cost more than 4x.
        assert!(c256 > 4 * c64, "c64={c64} c256={c256}");
        // Most of the work happens inside loops (sliceable for TinyOS).
        let mut m = Meter::new();
        let _ = real_fft_magnitude(&vec![1.0f32; 256], &mut m);
        assert!(m.counts().loop_fraction() > 0.9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = real_fft_magnitude(&[0.0; 100], &mut Meter::new());
    }

    #[test]
    fn isqrt_exact_on_squares() {
        for v in [0u64, 1, 2, 3, 4, 15, 16, 17, 1 << 20, u32::MAX as u64] {
            let r = isqrt_u64(v * v);
            assert_eq!(r, v, "isqrt({}) = {r}", v * v);
            let s = isqrt_u64(v * v + v); // between v^2 and (v+1)^2
            assert_eq!(s, v);
        }
    }

    #[test]
    fn q15_fft_matches_float_fft() {
        let n = 256;
        let signal: Vec<i16> = (0..n)
            .map(|i| {
                let t = i as f32 / n as f32;
                ((2.0 * std::f32::consts::PI * 13.0 * t).sin() * 9000.0
                    + (2.0 * std::f32::consts::PI * 40.0 * t).sin() * 4000.0) as i16
            })
            .collect();
        let floats: Vec<f32> = signal.iter().map(|&s| f32::from(s)).collect();
        let fm = real_fft_magnitude(&floats, &mut Meter::new());
        let qm = real_fft_magnitude_q15(&signal, &mut Meter::new());
        assert_eq!(fm.len(), qm.len());
        let peak = fm.iter().cloned().fold(0.0f32, f32::max);
        for (k, (f, q)) in fm.iter().zip(&qm).enumerate() {
            assert!(
                (f - q).abs() < 0.05 * peak + 600.0,
                "bin {k}: float {f} vs q15 {q}"
            );
        }
        // The spectral peaks land on the same bins.
        let argmax = |m: &[f32]| {
            m.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(argmax(&fm), argmax(&qm));
    }

    #[test]
    fn q15_fft_is_integer_work() {
        use wishbone_dataflow::OpClass;
        let signal: Vec<i16> = (0..256).map(|i| (i % 97) as i16 * 50).collect();
        let mut m = Meter::new();
        let _ = real_fft_magnitude_q15(&signal, &mut m);
        let c = m.counts();
        assert_eq!(c.get(OpClass::FloatMul), 0, "no float multiplies");
        assert_eq!(c.get(OpClass::Sqrt), 0, "integer sqrt only");
        assert!(c.get(OpClass::IntMul) >= 4 * 1024, "4 imuls per butterfly");
    }
}
