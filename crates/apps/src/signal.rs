//! Synthetic sensor signals.
//!
//! The paper profiles against "programmer-supplied sample data" and assumes
//! it is representative (§1). We have neither the authors' museum audio nor
//! their clinical EEG corpus, so we synthesize signals with the spectral
//! structure each pipeline exists to analyse:
//!
//! * **speech**: alternating voiced segments (harmonic stacks on a ~120 Hz
//!   fundamental with a formant-like spectral tilt), unvoiced fricative
//!   noise, and near-silence — sampled at 8 kHz in 200-sample frames;
//! * **EEG**: ongoing background rhythm (alpha ~10 Hz) plus seizure
//!   episodes with large-amplitude 3–8 Hz oscillations — "when a seizure
//!   occurs, oscillatory waves below 20 Hz appear in the EEG signal"
//!   (§6.1) — sampled at 256 Hz in 2-second windows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wishbone_dataflow::Value;

/// Speech reference rates: 8 kHz audio, 200-sample frames → 40 frames/s.
pub(crate) const SPEECH_SAMPLE_RATE: f64 = 8_000.0;
/// Samples per speech frame (400 bytes of raw 16-bit audio, as in Fig 7).
pub(crate) const SPEECH_FRAME_LEN: usize = 200;
/// Speech frames per second at the reference rate.
pub(crate) const SPEECH_FRAME_RATE: f64 = SPEECH_SAMPLE_RATE / SPEECH_FRAME_LEN as f64;

/// EEG reference rates: 256 Hz per channel, 2-second windows (§6.1).
pub(crate) const EEG_SAMPLE_RATE: f64 = 256.0;
/// Samples per EEG analysis window.
pub(crate) const EEG_WINDOW_LEN: usize = 512;
/// EEG windows per second at the reference rate.
pub(crate) const EEG_WINDOW_RATE: f64 = EEG_SAMPLE_RATE / EEG_WINDOW_LEN as f64;

/// Segment kinds inside the synthetic speech signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpeechSegment {
    Voiced,
    Unvoiced,
    Silence,
}

/// Generate `n_frames` frames of speech-like audio as `VecI16` values.
///
/// Deterministic per seed. Roughly 40% voiced / 20% unvoiced / 40%
/// silence, in multi-frame runs, so detectors see realistic duty cycles.
pub(crate) fn speech_trace(n_frames: usize, seed: u64) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frames = Vec::with_capacity(n_frames);
    let mut t = 0usize; // global sample clock
    let mut segment = SpeechSegment::Silence;
    let mut seg_left = 0usize;
    let mut f0 = 120.0f64;

    for _ in 0..n_frames {
        if seg_left == 0 {
            let roll: f64 = rng.gen();
            segment = if roll < 0.4 {
                SpeechSegment::Voiced
            } else if roll < 0.6 {
                SpeechSegment::Unvoiced
            } else {
                SpeechSegment::Silence
            };
            seg_left = rng.gen_range(4..16); // 100–400 ms runs
            f0 = rng.gen_range(90.0..180.0);
        }
        seg_left -= 1;

        let mut frame = Vec::with_capacity(SPEECH_FRAME_LEN);
        for _ in 0..SPEECH_FRAME_LEN {
            let time = t as f64 / SPEECH_SAMPLE_RATE;
            let sample: f64 = match segment {
                SpeechSegment::Voiced => {
                    // Harmonic stack with 1/h rolloff (glottal-like) and a
                    // formant bump around 700 Hz.
                    let mut s = 0.0;
                    for h in 1..=12 {
                        let freq = f0 * h as f64;
                        if freq > SPEECH_SAMPLE_RATE / 2.0 {
                            break;
                        }
                        let formant = 1.0 / (1.0 + ((freq - 700.0) / 500.0).powi(2));
                        s += (0.6 / h as f64 + formant)
                            * (2.0 * std::f64::consts::PI * freq * time).sin();
                    }
                    s * 2500.0 + rng.gen_range(-150.0..150.0)
                }
                SpeechSegment::Unvoiced => rng.gen_range(-1800.0..1800.0),
                SpeechSegment::Silence => rng.gen_range(-40.0..40.0),
            };
            frame.push(sample.clamp(-32_000.0, 32_000.0) as i16);
            t += 1;
        }
        frames.push(Value::VecI16(frame));
    }
    frames
}

/// Generate `n_windows` EEG windows for one channel.
///
/// Windows whose index falls in `seizure` carry large 3–8 Hz oscillations;
/// the rest carry background alpha rhythm plus noise. `channel` decorrelates
/// phases across the 22 channels of a montage.
pub(crate) fn eeg_trace(
    n_windows: usize,
    seizure: std::ops::Range<usize>,
    channel: usize,
    seed: u64,
) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(channel as u64 * 7919));
    let phase = rng.gen_range(0.0..std::f64::consts::TAU);
    let seiz_freq: f64 = rng.gen_range(3.0..8.0); // well below 20 Hz
    let mut windows = Vec::with_capacity(n_windows);
    let mut t = 0usize;
    for w in 0..n_windows {
        let in_seizure = seizure.contains(&w);
        let mut win = Vec::with_capacity(EEG_WINDOW_LEN);
        for _ in 0..EEG_WINDOW_LEN {
            let time = t as f64 / EEG_SAMPLE_RATE;
            let alpha = 30.0 * (2.0 * std::f64::consts::PI * 10.0 * time + phase).sin();
            let noise: f64 = rng.gen_range(-12.0..12.0);
            let s = if in_seizure {
                // Large-amplitude slow oscillation + sharpened wave shape.
                let osc = (2.0 * std::f64::consts::PI * seiz_freq * time + phase).sin();
                350.0 * osc + 80.0 * osc.powi(3) + alpha + noise
            } else {
                alpha + noise
            };
            win.push(s.clamp(-32_000.0, 32_000.0) as i16);
            t += 1;
        }
        windows.push(Value::VecI16(win));
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spectrum_peak_hz(frame: &[i16], rate: f64) -> f64 {
        // Coarse DFT peak (skip DC) for test verification only.
        let n = frame.len();
        let mut best = (0usize, 0.0f64);
        for k in 1..n / 2 {
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for (i, &s) in frame.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64;
                re += f64::from(s) * ang.cos();
                im += f64::from(s) * ang.sin();
            }
            let mag = re * re + im * im;
            if mag > best.1 {
                best = (k, mag);
            }
        }
        best.0 as f64 * rate / n as f64
    }

    #[test]
    fn speech_trace_shape() {
        let frames = speech_trace(50, 1);
        assert_eq!(frames.len(), 50);
        for f in &frames {
            assert_eq!(f.as_i16s().unwrap().len(), SPEECH_FRAME_LEN);
            assert_eq!(f.wire_size(), 2 + 400, "400-byte frames as in the paper");
        }
    }

    #[test]
    fn speech_has_loud_and_quiet_frames() {
        let frames = speech_trace(200, 2);
        let energies: Vec<f64> = frames
            .iter()
            .map(|f| {
                f.as_i16s()
                    .unwrap()
                    .iter()
                    .map(|&s| f64::from(s).powi(2))
                    .sum::<f64>()
            })
            .collect();
        let max = energies.iter().cloned().fold(0.0, f64::max);
        let min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max > 1e4 * min.max(1.0),
            "dynamic range: max {max}, min {min}"
        );
    }

    #[test]
    fn eeg_seizure_windows_are_slow_and_large() {
        let wins = eeg_trace(10, 4..7, 0, 3);
        let energy = |w: &Value| -> f64 {
            w.as_i16s()
                .unwrap()
                .iter()
                .map(|&s| f64::from(s).powi(2))
                .sum()
        };
        let bg = energy(&wins[0]);
        let sz = energy(&wins[5]);
        assert!(sz > 20.0 * bg, "seizure energy {sz} vs background {bg}");
        // Dominant seizure frequency below 20 Hz.
        let peak = spectrum_peak_hz(wins[5].as_i16s().unwrap(), EEG_SAMPLE_RATE);
        assert!(peak < 20.0, "seizure peak at {peak} Hz");
    }

    #[test]
    fn traces_are_deterministic_per_seed_and_channel() {
        assert_eq!(speech_trace(5, 7), speech_trace(5, 7));
        assert_eq!(eeg_trace(3, 1..2, 4, 9), eeg_trace(3, 1..2, 4, 9));
        assert_ne!(eeg_trace(3, 1..2, 4, 9), eeg_trace(3, 1..2, 5, 9));
    }

    #[test]
    fn rates_are_consistent() {
        assert!((SPEECH_FRAME_RATE - 40.0).abs() < 1e-12);
        assert!((EEG_WINDOW_RATE - 0.5).abs() < 1e-12);
    }
}
