//! Shared vocabulary for error-control codes.
//!
//! Dvé's central architectural move is that *detection* and *correction*
//! are different operations with different providers: every code in this
//! crate implements [`DetectionCode`]; only codes that can reconstruct
//! data locally (Chipkill RS) also implement [`CorrectionCode`].
//! The memory-controller model consumes these traits, and when a
//! detect-only code flags a codeword, the Dvé recovery path reads the
//! replica instead.

use std::fmt;

/// Result of checking (and possibly repairing) a codeword.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Codeword is consistent; no error observed.
    NoError,
    /// An error was detected and repaired in place by the local code.
    /// Dvé logs this as a CE (corrected error).
    Corrected {
        /// Number of symbols (or bits, for bit-oriented codes) repaired.
        symbols_fixed: usize,
    },
    /// An error was detected but exceeds the local code's correction
    /// capability. In a classic ECC system this is a DUE; under Dvé this
    /// triggers recovery from the replica.
    DetectedUncorrectable {
        /// Number of non-zero syndromes observed, a rough indication of
        /// the error magnitude.
        syndrome_weight: usize,
    },
}

impl CheckOutcome {
    /// Whether the data can be trusted after the check (possibly after an
    /// in-place repair).
    pub fn is_good(&self) -> bool {
        !matches!(self, CheckOutcome::DetectedUncorrectable { .. })
    }
}

impl fmt::Display for CheckOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckOutcome::NoError => write!(f, "no error"),
            CheckOutcome::Corrected { symbols_fixed } => {
                write!(f, "corrected ({symbols_fixed} symbol(s))")
            }
            CheckOutcome::DetectedUncorrectable { syndrome_weight } => {
                write!(
                    f,
                    "detected uncorrectable (syndrome weight {syndrome_weight})"
                )
            }
        }
    }
}

/// A code that can detect errors in a codeword.
///
/// Implementations are systematic: the first `data_len` bytes of the
/// codeword are the original data.
pub trait DetectionCode {
    /// Length of a dataword in bytes.
    fn data_len(&self) -> usize;

    /// Length of a codeword in bytes.
    fn codeword_len(&self) -> usize;

    /// Encodes `data` into a fresh codeword.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.data_len()`.
    fn encode(&self, data: &[u8]) -> Vec<u8>;

    /// Encodes `data` into a caller-provided codeword buffer.
    ///
    /// The default implementation allocates via [`DetectionCode::encode`];
    /// hot-path codecs (`Rs`, `Rs16Detect`) override it with a fully
    /// in-place, allocation-free encoder so callers that own their
    /// buffers (the campaign trial executor, the perf harness) never
    /// touch the heap per codeword.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.data_len()` or
    /// `codeword.len() != self.codeword_len()`.
    fn encode_into(&self, data: &[u8], codeword: &mut [u8]) {
        assert_eq!(
            codeword.len(),
            self.codeword_len(),
            "codeword length mismatch"
        );
        codeword.copy_from_slice(&self.encode(data));
    }

    /// Checks `codeword`, returning what was observed. Implementations of
    /// [`CorrectionCode`] may *not* modify the codeword here; use
    /// [`CorrectionCode::check_and_repair`] for in-place repair.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != self.codeword_len()`.
    fn check(&self, codeword: &[u8]) -> CheckOutcome;

    /// Extracts the data portion of a (presumed good) codeword.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != self.codeword_len()`.
    fn extract_data(&self, codeword: &[u8]) -> Vec<u8> {
        assert_eq!(
            codeword.len(),
            self.codeword_len(),
            "codeword length mismatch"
        );
        codeword[..self.data_len()].to_vec()
    }

    /// Storage overhead of the code: `(codeword - data) / data`.
    fn overhead(&self) -> f64 {
        (self.codeword_len() - self.data_len()) as f64 / self.data_len() as f64
    }
}

/// A code that can additionally repair (some) errors in place.
pub trait CorrectionCode: DetectionCode {
    /// Checks `codeword` and repairs it in place when the error is within
    /// the correction capability.
    fn check_and_repair(&self, codeword: &mut [u8]) -> CheckOutcome;

    /// Maximum number of symbol errors this code guarantees to correct.
    fn correctable_symbols(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_goodness() {
        assert!(CheckOutcome::NoError.is_good());
        assert!(CheckOutcome::Corrected { symbols_fixed: 1 }.is_good());
        assert!(!CheckOutcome::DetectedUncorrectable { syndrome_weight: 2 }.is_good());
    }

    #[test]
    fn outcome_display() {
        assert_eq!(CheckOutcome::NoError.to_string(), "no error");
        assert_eq!(
            CheckOutcome::Corrected { symbols_fixed: 2 }.to_string(),
            "corrected (2 symbol(s))"
        );
        assert!(CheckOutcome::DetectedUncorrectable { syndrome_weight: 3 }
            .to_string()
            .contains("uncorrectable"));
    }
}
