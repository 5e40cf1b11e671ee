//! # wishbone-dsp
//!
//! Metered DSP kernels and dataflow operator adapters for the two Wishbone
//! evaluation applications (paper §6):
//!
//! * the MFCC speech-detection front end — pre-emphasis, Hamming window,
//!   pre-filter, FFT magnitude, mel filterbank, log compression, DCT
//!   cepstra ([`fft`], [`window`], [`mel`]);
//! * the EEG polyphase wavelet decomposition — even/odd split, 4-tap FIR
//!   low/high-pass phases, branch summation, scaled energies ([`fir`]).
//!
//! Every kernel computes real results **and** records abstract operation
//! counts on a [`wishbone_dataflow::Meter`]; the profiler maps counts to
//! per-platform cycles. Kernels meter loop bodies via `loop_scope`, which
//! is what lets the TinyOS runtime simulator split long tasks at loop
//! boundaries (paper §3, §5.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fft;
pub mod fir;
pub mod mel;
pub mod ops;
pub mod window;

pub use fft::{fft_in_place, real_fft_magnitude, real_fft_magnitude_q15};
pub use fir::{FirFilter, H_HIGH_EVEN, H_HIGH_ODD, H_LOW_EVEN, H_LOW_ODD};
pub use mel::dct_ii;
pub use ops::{
    AddWindowsOp, CepstralOp, FftMagOp, FilterBankOp, FirWindowOp, GetEvenOp, GetOddOp, HammingOp,
    LogQuantOp, MagScaleOp, PreEmphOp, PreFiltOp,
};
