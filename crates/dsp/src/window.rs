//! Windowing and pre-emphasis kernels (the cheap front half of the MFCC
//! pipeline, paper Fig 7's `preemph` and `hamming` stages).

use wishbone_dataflow::Meter;

/// Hamming window coefficients of length `n`.
pub(crate) fn hamming_coeffs(n: usize) -> Vec<f32> {
    assert!(n >= 2);
    (0..n)
        .map(|i| 0.54 - 0.46 * (2.0 * std::f32::consts::PI * i as f32 / (n as f32 - 1.0)).cos())
        .collect()
}

/// Q15 fixed-point Hamming window coefficients (embedded front ends run
/// windowing in integer math; floats only appear from the FFT onwards,
/// which is what concentrates float cost in the back half — paper Fig 8).
pub(crate) fn hamming_coeffs_q15(n: usize) -> Vec<i16> {
    hamming_coeffs(n)
        .into_iter()
        .map(|w| (w * 32767.0).round().clamp(0.0, 32767.0) as i16)
        .collect()
}

/// Fixed-point window multiply: `y = (x * w_q15) >> 15` (metered as
/// integer multiplies).
pub(crate) fn apply_window_q15(frame: &[i16], window_q15: &[i16], meter: &mut Meter) -> Vec<i16> {
    assert_eq!(frame.len(), window_q15.len());
    meter.loop_scope(frame.len() as u64, |meter| {
        meter.imul(frame.len() as u64);
        meter.int(frame.len() as u64);
        meter.mem(2 * frame.len() as u64);
        frame
            .iter()
            .zip(window_q15)
            .map(|(&x, &w)| ((i32::from(x) * i32::from(w)) >> 15) as i16)
            .collect()
    })
}

/// Fixed-point pre-emphasis `y[i] = x[i] - (α_q15·x[i-1]) >> 15`, state in
/// `prev` (metered as integer ops).
pub(crate) fn preemphasis_q15(
    frame: &[i16],
    alpha_q15: i16,
    prev: &mut i16,
    meter: &mut Meter,
) -> Vec<i16> {
    let mut out = Vec::with_capacity(frame.len());
    meter.loop_scope(frame.len() as u64, |meter| {
        meter.imul(frame.len() as u64);
        meter.int(frame.len() as u64);
        meter.mem(2 * frame.len() as u64);
        for &x in frame {
            let y = i32::from(x) - ((i32::from(alpha_q15) * i32::from(*prev)) >> 15);
            out.push(y.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16);
            *prev = x;
        }
    });
    out
}

/// Integer DC removal + zero-pad: subtract the integer mean and pad with
/// zeros to `pad_to`. Keeps the `prefilt` stage in fixed point so the
/// fixed-point FFT can follow.
pub(crate) fn dc_remove_and_pad_i16(frame: &[i16], pad_to: usize, meter: &mut Meter) -> Vec<i16> {
    assert!(pad_to >= frame.len());
    let mean: i32 = if frame.is_empty() {
        0
    } else {
        meter.loop_scope(frame.len() as u64, |meter| {
            meter.int(frame.len() as u64);
            meter.mem(frame.len() as u64);
            frame.iter().map(|&x| i32::from(x)).sum::<i32>() / frame.len() as i32
        })
    };
    let mut out = vec![0i16; pad_to];
    meter.loop_scope(frame.len() as u64, |meter| {
        meter.int(frame.len() as u64);
        meter.mem(frame.len() as u64);
        for (o, &x) in out.iter_mut().zip(frame) {
            *o = (i32::from(x) - mean).clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First-order pre-emphasis `y[i] = x[i] - α·x[i-1]` in float,
    /// carrying the last sample of the previous frame in `prev`: the
    /// reference [`preemphasis_q15`] is held to.
    fn preemphasis(frame: &[i16], alpha: f32, prev: &mut f32, meter: &mut Meter) -> Vec<f32> {
        let mut out = Vec::with_capacity(frame.len());
        meter.loop_scope(frame.len() as u64, |meter| {
            meter.fmul(frame.len() as u64);
            meter.fadd(frame.len() as u64);
            meter.mem(2 * frame.len() as u64);
            for &s in frame {
                let x = f32::from(s);
                out.push(x - alpha * *prev);
                *prev = x;
            }
        });
        out
    }

    #[test]
    fn hamming_endpoints_and_symmetry() {
        let w = hamming_coeffs(64);
        assert!((w[0] - 0.08).abs() < 1e-5);
        assert!((w[63] - 0.08).abs() < 1e-5);
        for i in 0..32 {
            assert!((w[i] - w[63 - i]).abs() < 1e-5, "asymmetric at {i}");
        }
        let peak = w.iter().cloned().fold(f32::MIN, f32::max);
        assert!(peak <= 1.0 && peak > 0.99);
    }

    #[test]
    fn preemphasis_carries_state_across_frames() {
        let mut prev = 0.0;
        let mut m = Meter::new();
        let out1 = preemphasis(&[100, 100], 0.9, &mut prev, &mut m);
        assert_eq!(out1, vec![100.0, 10.0]);
        // Next frame sees prev = 100.
        let out2 = preemphasis(&[100], 0.9, &mut prev, &mut m);
        assert_eq!(out2, vec![10.0]);
    }

    #[test]
    fn q15_window_tracks_float_window() {
        let n = 64;
        let w = hamming_coeffs(n);
        let wq = hamming_coeffs_q15(n);
        let frame: Vec<i16> = (0..n).map(|i| (i as i16 - 32) * 100).collect();
        let mut m = Meter::new();
        let yq = apply_window_q15(&frame, &wq, &mut m);
        for i in 0..n {
            let yf = f32::from(frame[i]) * w[i];
            assert!(
                (f32::from(yq[i]) - yf).abs() <= 2.0 + yf.abs() * 0.001,
                "bin {i}: {yq:?} vs {yf}",
                yq = yq[i]
            );
        }
        // Metered as integer work only.
        use wishbone_dataflow::OpClass;
        assert_eq!(m.counts().get(OpClass::FloatMul), 0);
        assert!(m.counts().get(OpClass::IntMul) > 0);
    }

    #[test]
    fn q15_preemphasis_tracks_float() {
        let mut prev_q = 0i16;
        let mut prev_f = 0.0f32;
        let mut m = Meter::new();
        let frame: Vec<i16> = vec![1000, 2000, -1500, 300];
        let yq = preemphasis_q15(&frame, (0.97f32 * 32768.0) as i16, &mut prev_q, &mut m);
        let yf = preemphasis(&frame, 0.97, &mut prev_f, &mut m);
        for (q, f) in yq.iter().zip(&yf) {
            assert!((f32::from(*q) - f).abs() < 4.0, "{q} vs {f}");
        }
    }

    #[test]
    fn integer_dc_removal() {
        let mut m = Meter::new();
        let out = dc_remove_and_pad_i16(&[10, 20, 30], 8, &mut m);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &[-10, 0, 10]);
        assert!(out[3..].iter().all(|&x| x == 0));
        use wishbone_dataflow::OpClass;
        assert_eq!(m.counts().get(OpClass::FloatAdd), 0, "pure integer stage");
    }
}
