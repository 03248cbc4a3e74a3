//! # dve-ecc — error detection and correction codes
//!
//! Dvé (ISCA 2021) decouples error *detection* (kept local, via ECC
//! codewords at the memory controller) from error *correction* (performed
//! by reading the replica on the other socket). This crate implements the
//! codes the fault-injection campaign, the DRAM model and the perf
//! harness run:
//!
//! * [`gf`] — GF(2^8) and GF(2^16) arithmetic, table-driven, with a
//!   shift-and-add reference oracle.
//! * [`rs`] — Reed–Solomon codes over GF(2^8), the substrate of Chipkill.
//!   `Rs::new(18, 16, ..)` is the paper's RS(18,16,8) configuration
//!   (§IV-A); two-check codes correct a single symbol in closed form and
//!   longer codes run Berlekamp–Massey + Chien + Forney, so the same type
//!   serves as a *correcting* Chipkill code or a *detect-only* DSD code
//!   depending on the [`rs::DecodePolicy`].
//! * [`rs16`] — detection-only Reed–Solomon over GF(2^16): the TSD
//!   (triple-symbol-detect) code the paper borrows from Multi-ECC.
//! * [`code`] — the [`code::DetectionCode`] / [`code::CorrectionCode`]
//!   traits and the [`code::CheckOutcome`] vocabulary (`NoError`,
//!   `Corrected`, `DetectedUncorrectable`) shared with the memory
//!   controller model in `dve-dram`.
//! * [`inject`] — fault injection on codewords at bit, symbol, chip and
//!   burst granularity, used by the recovery tests and the empirical
//!   detection-coverage experiments.
//!
//! # Example: detect with ECC, correct from the replica
//!
//! ```
//! use dve_ecc::code::{CheckOutcome, DetectionCode};
//! use dve_ecc::rs::{DecodePolicy, Rs};
//!
//! // The paper's RS(18,16) over 8-bit symbols, used detect-only (DSD).
//! let code = Rs::new(18, 16, DecodePolicy::DetectOnly);
//! let data: Vec<u8> = (0..16).collect();
//! let mut cw = code.encode(&data);
//! cw[3] ^= 0xA5; // a chip goes bad
//! assert!(matches!(code.check(&cw), CheckOutcome::DetectedUncorrectable { .. }));
//! // ...at which point Dvé reads the replica instead of reconstructing.
//! ```

pub mod code;
pub mod gf;
pub mod inject;
pub mod rs;
pub mod rs16;

pub use code::{CheckOutcome, CorrectionCode, DetectionCode};
pub use rs::{DecodePolicy, Rs};
pub use rs16::Rs16Detect;
