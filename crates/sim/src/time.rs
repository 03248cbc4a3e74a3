//! Strongly-typed simulated time.
//!
//! The Dvé system mixes clock domains: cores run at a configured frequency
//! (3 GHz in the paper's Table II), DRAM timing is specified in
//! nanoseconds, and the inter-socket link latency is quoted in nanoseconds
//! as well. [`Cycles`] and [`Nanos`] keep the two units from being mixed
//! up, and [`Frequency`] converts between them.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration or timestamp measured in core clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

/// A duration measured in nanoseconds (used for DRAM timing parameters and
/// interconnect latencies, matching how the paper quotes them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Cycles {
    /// The raw cycle count.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The later of two timestamps.
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }
}

impl Nanos {
    /// The raw nanosecond count.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ns", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(v: u64) -> Self {
        Cycles(v)
    }
}

impl From<u64> for Nanos {
    fn from(v: u64) -> Self {
        Nanos(v)
    }
}

/// A clock frequency, used to convert wall-clock DRAM/link latencies into
/// core cycles.
///
/// # Example
///
/// ```
/// use dve_sim::time::{Frequency, Nanos};
///
/// let f = Frequency::ghz(3.0); // the paper's 3.0 GHz cores
/// assert_eq!(f.cycles_for(Nanos(50)).raw(), 150); // 50 ns QPI hop = 150 cycles
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frequency {
    hz: f64,
}

/// The core clock (Table II: 3.0 GHz): the simulation's one time base.
/// DRAM timings and link latencies are converted into its cycles, and
/// energy accounting converts cycles back to seconds through it.
pub const CORE_CLOCK: Frequency = Frequency { hz: 3.0e9 };

impl Frequency {
    /// Creates a frequency from a GHz value.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn ghz(ghz: f64) -> Frequency {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        Frequency { hz: ghz * 1e9 }
    }

    /// Converts a nanosecond duration to cycles in this clock domain,
    /// rounding up (a latency never gets shorter by quantization).
    pub fn cycles_for(self, ns: Nanos) -> Cycles {
        let cycles = (ns.0 as f64) * self.hz / 1e9;
        Cycles(cycles.ceil() as u64)
    }

    /// Converts fractional nanoseconds (e.g. DDR4 tCL = 14.16 ns) to
    /// cycles, rounding up.
    pub fn cycles_for_ns_f64(self, ns: f64) -> Cycles {
        assert!(ns >= 0.0 && ns.is_finite(), "latency must be non-negative");
        Cycles((ns * self.hz / 1e9).ceil() as u64)
    }

    /// Converts a cycle count in this domain to (fractional) nanoseconds.
    pub fn nanos_for(self, cycles: Cycles) -> f64 {
        cycles.0 as f64 * 1e9 / self.hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_to_cycles_at_3ghz() {
        let f = Frequency::ghz(3.0);
        assert_eq!(f.cycles_for(Nanos(50)), Cycles(150));
        assert_eq!(f.cycles_for(Nanos(0)), Cycles(0));
        assert_eq!(f.cycles_for(Nanos(1)), Cycles(3));
    }

    #[test]
    fn fractional_ns_rounds_up() {
        let f = Frequency::ghz(3.0);
        // tCL = 14.16 ns -> 42.48 cycles -> 43
        assert_eq!(f.cycles_for_ns_f64(14.16), Cycles(43));
    }

    #[test]
    fn table_ii_clock_is_3ghz() {
        assert_eq!(CORE_CLOCK, Frequency::ghz(3.0));
        assert_eq!(CORE_CLOCK.cycles_for(Nanos(50)), Cycles(150));
    }

    #[test]
    fn roundtrip_nanos() {
        let f = Frequency::ghz(2.0);
        let ns = f.nanos_for(Cycles(100));
        assert!((ns - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles(10);
        let b = Cycles(4);
        assert_eq!(a + b, Cycles(14));
        assert_eq!(a - b, Cycles(6));
        assert_eq!(b.saturating_sub(a), Cycles(0));
        assert_eq!(a.max(b), Cycles(10));
        let mut c = a;
        c += b;
        assert_eq!(c, Cycles(14));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        Frequency::ghz(0.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Cycles(5).to_string(), "5 cyc");
        assert_eq!(Nanos(7).to_string(), "7 ns");
    }
}
