//! Shared vocabulary for error-control codes.
//!
//! Dvé's central architectural move is that *detection* and *correction*
//! are different operations with different providers: every code in this
//! crate implements [`DetectionCode`]; only Chipkill reconstructs data
//! locally, through [`Rs::decode_in_place`](crate::rs::Rs::decode_in_place).
//! When a detect-only code flags a codeword, the Dvé recovery path reads
//! the replica instead.

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
    /// A detect-only verdict from a codeword's syndromes: `NoError` if
    /// all are zero, otherwise `DetectedUncorrectable` weighted by the
    /// non-zero ones.
    pub(crate) fn from_syndromes<T: Copy + Default + PartialEq>(syn: &[T]) -> CheckOutcome {
        let weight = syn.iter().filter(|&&s| s != T::default()).count();
        if weight == 0 {
            CheckOutcome::NoError
        } else {
            CheckOutcome::DetectedUncorrectable {
                syndrome_weight: weight,
            }
        }
    }

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
    fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut codeword = vec![0u8; self.codeword_len()];
        self.encode_into(data, &mut codeword);
        codeword
    }

    /// Encodes `data` into a caller-provided codeword buffer without
    /// allocating, so callers that own their buffers (the campaign trial
    /// executor, the perf harness) never touch the heap per codeword.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.data_len()` or
    /// `codeword.len() != self.codeword_len()`.
    fn encode_into(&self, data: &[u8], codeword: &mut [u8]);

    /// Checks `codeword`, returning what was observed, without modifying
    /// it: a detected error is reported, never repaired.
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
