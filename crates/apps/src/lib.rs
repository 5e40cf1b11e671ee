//! # wishbone-apps
//!
//! The two applications of the Wishbone evaluation (paper §6), built on
//! the dataflow/DSP substrates:
//!
//! * [`speech`] — acoustic speech detection via MFCC feature extraction:
//!   a linear pipeline (`source → preemph → hamming → prefilt → FFT →
//!   filtBank → logs → cepstrals`) with the paper's data-reduction
//!   profile (400-byte frames → ~52-byte cepstra);
//! * [`eeg`] — 22-channel EEG seizure-onset detection: per-channel
//!   polyphase wavelet cascades, 66 band-energy features, a
//!   patient-specific linear [`svm`], and a 3-consecutive-windows
//!   declaration rule;
//! * [`signal`] — deterministic synthetic audio/EEG generators standing in
//!   for the paper's recorded corpora.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eeg;
pub mod signal;
pub mod speech;
pub mod svm;

pub use eeg::{build_eeg_app, build_eeg_channel, heuristic_svm, EegApp, EegParams};
pub use speech::{build_speech_app, SpeechApp};
pub use svm::{DeclareOp, LinearSvm, SvmOp};
