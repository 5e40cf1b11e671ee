//! The acoustic speech-detection application (§6.2): a linear pipeline of
//! MFCC feature-extraction operators.
//!
//! Stages match Fig 7's X axis: `source → preemph → hamming → prefilt →
//! FFT → filtBank → logs → cepstrals`, with the data reductions the paper
//! reports — 400-byte raw frames, ~128 bytes after the filterbank, ~52
//! bytes of cepstra.

use wishbone_dataflow::{Graph, GraphBuilder, OperatorId, Value};
use wishbone_dsp::{
    CepstralOp, FftMagOp, FilterBankOp, HammingOp, LogQuantOp, PreEmphOp, PreFiltOp,
};
use wishbone_profile::SourceTrace;

use crate::signal::{speech_trace, SPEECH_FRAME_LEN, SPEECH_FRAME_RATE, SPEECH_SAMPLE_RATE};

/// MFCC pipeline parameters.
#[derive(Debug, Clone, Copy)]
pub struct SpeechParams {
    /// Samples per frame.
    pub frame_len: usize,
    /// FFT size (frame is zero-padded to this).
    pub fft_size: usize,
    /// Mel filters.
    pub n_filters: usize,
    /// Cepstral coefficients kept.
    pub n_cepstra: usize,
    /// Log quantization scale (log-units per i16 step).
    pub log_scale: f32,
}

impl Default for SpeechParams {
    fn default() -> Self {
        SpeechParams {
            frame_len: SPEECH_FRAME_LEN,
            fft_size: 256,
            n_filters: 32,
            n_cepstra: 13,
            log_scale: 256.0,
        }
    }
}

/// The built speech application.
pub struct SpeechApp {
    /// The dataflow graph.
    pub graph: Graph,
    /// The microphone source.
    pub source: OperatorId,
    /// The pipeline stages in order, `(name, id)` — including the source,
    /// excluding the sink. Cutting "after stage i" = node partition
    /// `stages[..=i]`.
    pub stages: Vec<(&'static str, OperatorId)>,
    /// The server sink.
    pub sink: OperatorId,
}

impl SpeechApp {
    /// Node-side operator sets for every cutpoint, in pipeline order
    /// (cutpoint `i` = stages `0..=i` on the node). These are the X axes
    /// of Figs 5b, 9 and 10.
    pub fn cutpoints(&self) -> Vec<(&'static str, std::collections::HashSet<OperatorId>)> {
        (0..self.stages.len())
            .map(|i| {
                let set = self.stages[..=i].iter().map(|&(_, id)| id).collect();
                (self.stages[i].0, set)
            })
            .collect()
    }

    /// A profiling trace of `n_frames` synthesized frames.
    pub fn trace(&self, n_frames: usize, seed: u64) -> SourceTrace {
        SourceTrace {
            source: self.source,
            elements: speech_trace(n_frames, seed),
            rate_hz: SPEECH_FRAME_RATE,
        }
    }

    /// Raw trace elements (for the deployment simulator).
    pub fn trace_elements(&self, n_frames: usize, seed: u64) -> Vec<Value> {
        speech_trace(n_frames, seed)
    }
}

/// Build the speech-detection pipeline.
pub fn build_speech_app(params: SpeechParams) -> SpeechApp {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let source = b.source("source");
    // Pre-emphasis keeps the previous frame's last sample: stateful.
    let preemph = b.stateful_transform("preemph", Box::new(PreEmphOp::new(0.97)), source);
    let hamming = b.transform(
        "hamming",
        Box::new(HammingOp::new(params.frame_len)),
        preemph,
    );
    let prefilt = b.transform(
        "prefilt",
        Box::new(PreFiltOp::new(params.fft_size)),
        hamming,
    );
    let fft = b.transform("FFT", Box::new(FftMagOp), prefilt);
    let filtbank = b.transform(
        "filtBank",
        Box::new(FilterBankOp::new(
            params.n_filters,
            params.fft_size / 2,
            SPEECH_SAMPLE_RATE as f32,
        )),
        fft,
    );
    let logs = b.transform(
        "logs",
        Box::new(LogQuantOp::new(params.log_scale)),
        filtbank,
    );
    let cepstrals = b.transform(
        "cepstrals",
        Box::new(CepstralOp::new(params.n_cepstra, 1.0 / params.log_scale)),
        logs,
    );
    b.exit_namespace();
    let sink = b.sink("main", cepstrals);

    let graph = b.finish().expect("speech pipeline is a valid DAG");
    SpeechApp {
        graph,
        source: source.0,
        stages: vec![
            ("source", source.0),
            ("preemph", preemph.0),
            ("hamming", hamming.0),
            ("prefilt", prefilt.0),
            ("FFT", fft.0),
            ("filtBank", filtbank.0),
            ("logs", logs.0),
            ("cepstrals", cepstrals.0),
        ],
        sink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbone_profile::{profile, Platform};

    #[test]
    fn pipeline_structure() {
        let app = build_speech_app(SpeechParams::default());
        assert_eq!(app.graph.operator_count(), 9); // 8 stages + sink
        assert_eq!(app.graph.edge_count(), 8);
        assert_eq!(app.cutpoints().len(), 8);
        assert_eq!(app.cutpoints()[0].1.len(), 1);
        assert_eq!(app.cutpoints()[7].1.len(), 8);
    }

    #[test]
    fn profiles_with_paper_data_reductions() {
        let app = build_speech_app(SpeechParams::default());
        let trace = app.trace(80, 42);
        let prof = profile(&app.graph, &[trace]).unwrap();

        // Edge i connects stage i to stage i+1 (last edge feeds the sink).
        let bw: Vec<f64> = app
            .graph
            .edge_ids()
            .map(|e| prof.edge_bandwidth(e))
            .collect();
        let raw = bw[0]; // source output: 402 B * 40/s
        assert!((raw - 402.0 * 40.0).abs() < 1.0, "raw bandwidth {raw}");
        let filtbank = bw[5];
        let logs = bw[6];
        let cepstra = bw[7];
        // Paper: 400 B -> 128 B -> 52 B per frame (plus our small headers).
        // Paper: 400-byte frames fall to ~128 bytes after the filter bank.
        assert!(
            filtbank < raw / 2.5,
            "filterbank reduces ~3x: {filtbank} vs {raw}"
        );
        assert!(logs < filtbank, "log quantization reduces further");
        assert!(cepstra < logs, "cepstra are the smallest");

        // FFT and cepstrals dominate CPU (Fig 7's tall bars).
        let mote = Platform::tmote_sky();
        let per_op: Vec<f64> = app
            .stages
            .iter()
            .map(|&(_, id)| prof.seconds_per_invocation(id, &mote))
            .collect();
        let fft_cost = per_op[4];
        let cep_cost = per_op[7];
        let hamming_cost = per_op[2];
        assert!(fft_cost > 10.0 * hamming_cost);
        assert!(cep_cost > 10.0 * hamming_cost);
    }

    #[test]
    fn mote_cannot_run_the_pipeline_at_full_rate() {
        // §6.2.2: "not only is the network capacity insufficient to forward
        // all the raw data back ... but the CPU resources are also
        // insufficient to extract the MFCCs in real time."
        let app = build_speech_app(SpeechParams::default());
        let trace = app.trace(40, 7);
        let prof = profile(&app.graph, &[trace]).unwrap();
        let mote = Platform::tmote_sky();
        let total_cpu: f64 = app
            .stages
            .iter()
            .map(|&(_, id)| prof.cpu_fraction(id, &mote))
            .sum();
        assert!(
            total_cpu > 1.0,
            "full pipeline needs {total_cpu:.1}x the mote CPU"
        );
        let raw_bw = prof.edge_on_air_bandwidth(wishbone_dataflow::EdgeId(0), &mote);
        assert!(
            raw_bw > mote.radio.goodput_bytes_per_sec,
            "raw audio ({raw_bw:.0} B/s) exceeds the radio budget"
        );
    }

    #[test]
    fn deterministic_traces() {
        let app = build_speech_app(SpeechParams::default());
        assert_eq!(app.trace_elements(3, 5), app.trace_elements(3, 5));
    }
}
