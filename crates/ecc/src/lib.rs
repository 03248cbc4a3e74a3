//! # dve-ecc — error detection and correction codes
//!
//! Dvé (ISCA 2021) decouples error *detection* (kept local, via ECC
//! codewords at the memory controller) from error *correction* (performed
//! by reading the replica on the other socket). This crate implements
//! exactly the three codes §IV of the paper evaluates, which the
//! fault-injection campaign and the perf harness run:
//!
//! * [`gf`] — GF(2^8) and GF(2^16) arithmetic, table-driven, with a
//!   shift-and-add reference oracle.
//! * [`rs`] — the paper's RS(18,16,8) over GF(2^8) (§IV-A), the
//!   substrate of Chipkill: [`Rs::chipkill`] corrects a single symbol in
//!   closed form, [`Rs::dsd`] is the same code used *detect-only* (DSD),
//!   per its [`rs::DecodePolicy`]. Berlekamp–Massey + Chien + Forney
//!   survive only as the test oracle for the closed form.
//! * [`rs16`] — detection-only Reed–Solomon over GF(2^16) with three
//!   check symbols: the TSD (triple-symbol-detect) code the paper
//!   borrows from Multi-ECC, [`Rs16Detect::tsd`].
//! * [`code`] — the [`code::DetectionCode`] trait and the
//!   [`code::CheckOutcome`] vocabulary (`NoError`, `Corrected`,
//!   `DetectedUncorrectable`) shared with the memory controller model in
//!   `dve-dram`.
//! * [`inject`] — fault injection on codewords at bit, symbol, chip and
//!   burst granularity, used by the recovery tests and the empirical
//!   detection-coverage experiments.
//!
//! # Example: detect with ECC, correct from the replica
//!
//! ```
//! use dve_ecc::code::{CheckOutcome, DetectionCode};
//! use dve_ecc::rs::Rs;
//!
//! // The paper's RS(18,16) over 8-bit symbols, used detect-only (DSD).
//! let code = Rs::dsd();
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

pub use code::{CheckOutcome, DetectionCode};
pub use rs::{DecodePolicy, Rs};
pub use rs16::Rs16Detect;
