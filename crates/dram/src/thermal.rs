//! Rank-level thermal profile (§IV-C).
//!
//! §IV-C observes that "ranks closer to the processor may exhibit
//! higher temperatures". [`ThermalProfile`] carries that gradient and
//! turns it into per-rank relative FIT rates with the Arrhenius
//! relation; the in-band thermal fault source scales its per-rank
//! arrival rates by them. The paper's chip-level risk-inverse mapping
//! (Table I) lives in `dve_reliability::fit::ThermalMapping`.

/// A thermal profile over the ranks of one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalProfile {
    /// Temperature of each rank in the channel, °C, ordered by distance
    /// from the processor.
    pub rank_celsius: Vec<f64>,
}

impl ThermalProfile {
    /// The paper-derived profile: a 6 °C gradient across `ranks` ranks,
    /// hottest nearest the processor.
    pub fn paper_default(ranks: usize) -> ThermalProfile {
        let rank_celsius = (0..ranks.max(1))
            .map(|i| 51.0 - 6.0 * i as f64 / ranks.max(2).saturating_sub(1) as f64)
            .collect();
        ThermalProfile { rank_celsius }
    }

    /// Per-rank risk scores (relative FIT) at activation energy
    /// `ea_ev`, referenced to the coolest rank.
    pub fn rank_risks(&self, ea_ev: f64) -> Vec<f64> {
        let t0 = self
            .rank_celsius
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        self.rank_celsius
            .iter()
            .map(|&t| arrhenius(1.0, t0, t, ea_ev))
            .collect()
    }
}

fn arrhenius(fit: f64, t0: f64, t1: f64, ea_ev: f64) -> f64 {
    const K_B: f64 = 8.617_333e-5;
    fit * (ea_ev / K_B * (1.0 / (t0 + 273.15) - 1.0 / (t1 + 273.15))).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_shape() {
        let t = ThermalProfile::paper_default(2);
        assert_eq!(t.rank_celsius.len(), 2);
        assert!(
            t.rank_celsius[0] > t.rank_celsius[1],
            "rank 0 nearer the CPU runs hotter"
        );
    }

    #[test]
    fn rank_risks_reference_coolest() {
        let t = ThermalProfile::paper_default(4);
        let r = t.rank_risks(0.6);
        let min = r.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((min - 1.0).abs() < 1e-9);
    }
}
