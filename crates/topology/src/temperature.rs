//! Intra-cabinet thermal model.
//!
//! The paper (Observations 1 and 4): "due to the power/cooling set up in
//! the Titan supercomputer higher cages are typically hotter than the
//! lower cages in the same cabinet … the GPUs in the uppermost cage are on
//! an average more than 10 °F hotter than the GPUs in the lowermost cage,
//! as per a snapshot taken by the nvidia-smi utility."
//!
//! The model gives every slot a steady-state GPU temperature:
//! base + cage offset + a small deterministic per-slot spread (airflow is
//! not perfectly even across a cage), and exposes an Arrhenius-flavoured
//! acceleration factor that the fault processes consume.

use serde::{Deserialize, Serialize};

use crate::geometry::NodeId;

/// Steady-state thermal model for the whole floor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalModel {
    /// Mean GPU temperature in the bottom cage, °F.
    pub base_f: f64,
    /// Added °F per cage level; the top cage (index 2) ends up
    /// `2 × cage_step_f` above the bottom one.
    pub cage_step_f: f64,
    /// Peak-to-peak deterministic spread across blades within a cage, °F.
    pub blade_spread_f: f64,
    /// Multiplicative error-rate increase per added °F, for
    /// temperature-sensitive fault classes (DBE, off-the-bus).
    pub rate_per_deg_f: f64,
}

impl Default for ThermalModel {
    fn default() -> Self {
        // Defaults chosen so the top cage is +10.4 °F over the bottom —
        // "more than 10 °F" per the paper — around a typical K20X
        // operating point in an air-cooled XK7 cabinet.
        ThermalModel {
            base_f: 150.0,
            cage_step_f: 5.2,
            blade_spread_f: 3.0,
            rate_per_deg_f: 0.035,
        }
    }
}

impl ThermalModel {
    /// Steady-state GPU temperature at `node`, °F.
    pub fn gpu_temp_f(&self, node: NodeId) -> f64 {
        let loc = node.location();
        let cage = self.base_f + self.cage_step_f * loc.cage as f64;
        // Blades near the cage center run slightly hotter; deterministic
        // triangular profile, mean-zero across the cage.
        let center_dist = (loc.blade as f64 - 3.5).abs() / 3.5; // 0 center, 1 edge
        let blade = self.blade_spread_f * (0.5 - center_dist) * 0.5;
        cage + blade
    }

    /// Top-minus-bottom cage temperature difference, °F. Must exceed 10
    /// with the default parameters to match the paper.
    pub fn top_bottom_delta_f(&self) -> f64 {
        2.0 * self.cage_step_f
    }

    /// Error-rate acceleration factor at `node` relative to the bottom-cage
    /// baseline: exp(rate_per_deg_f × ΔT). 1.0 in the bottom cage.
    pub fn acceleration(&self, node: NodeId) -> f64 {
        let dt = self.gpu_temp_f(node) - self.base_f;
        (self.rate_per_deg_f * dt).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Location;

    fn node(cage: u8, blade: u8) -> NodeId {
        Location {
            row: 10,
            col: 4,
            cage,
            blade,
            node: 0,
        }
        .node_id()
    }

    #[test]
    fn top_cage_is_over_ten_f_hotter() {
        let m = ThermalModel::default();
        assert!(m.top_bottom_delta_f() > 10.0);
        let top = m.gpu_temp_f(node(2, 0));
        let bottom = m.gpu_temp_f(node(0, 0));
        assert!(top - bottom > 10.0);
    }

    #[test]
    fn temperature_monotone_in_cage() {
        let m = ThermalModel::default();
        for blade in 0..8 {
            let t0 = m.gpu_temp_f(node(0, blade));
            let t1 = m.gpu_temp_f(node(1, blade));
            let t2 = m.gpu_temp_f(node(2, blade));
            assert!(t0 < t1 && t1 < t2);
        }
    }

    #[test]
    fn blade_profile_peaks_in_center() {
        let m = ThermalModel::default();
        let center = m.gpu_temp_f(node(1, 3));
        let edge = m.gpu_temp_f(node(1, 0));
        assert!(center > edge);
        // Spread stays within the configured bound.
        assert!(center - edge <= m.blade_spread_f);
    }

    #[test]
    fn acceleration_baseline_and_ordering() {
        let m = ThermalModel::default();
        // Bottom-cage edge blade is the coolest — factor ~1.
        let base = m.acceleration(node(0, 0));
        assert!((base - 1.0).abs() < 0.05, "base {base}");
        let top = m.acceleration(node(2, 4));
        assert!(top > base);
        // Default parameters put the top cage at roughly 1.4x the
        // bottom-cage error rate — enough to be seen in cage tallies but
        // not overwhelming, consistent with Fig. 3(b)'s moderate skew.
        // Same blade, so the blade term cancels.
        let ratio = m.acceleration(node(2, 3)) / m.acceleration(node(0, 3));
        assert!((1.2..2.0).contains(&ratio), "ratio {ratio}");
    }
}
