//! From rates to fleet-level expectations.
//!
//! Table I's rates are "per billion hours of operation"; an operator
//! deciding whether to flip a fleet into replicated mode (§V-D's control
//! plane) thinks in failures per year across the fleet. This conversion
//! makes the §IV results directly consumable by that control plane.

/// Hours in a (Julian) year.
pub const HOURS_PER_YEAR: f64 = 8766.0;

/// Expected events per year across a fleet of `machines`.
pub fn fleet_events_per_year(rate_per_1e9h: f64, machines: u64) -> f64 {
    rate_per_1e9h / 1e9 * HOURS_PER_YEAR * machines as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_math_scales_linearly() {
        let one = fleet_events_per_year(1e-2, 1);
        let many = fleet_events_per_year(1e-2, 100_000);
        assert!((many / one - 100_000.0).abs() < 1e-6);
    }
}
