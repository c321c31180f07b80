//! GPS configuration (the paper's user-facing parameters).
//!
//! §5 gives GPS exactly two sizing parameters — the **seed size** (§5.1) and
//! the **scanning step size** (§5.3) — plus the bandwidth constraint `c1`
//! of Equation 3. The remaining knobs here expose design-ablation switches
//! (which of the four interaction classes to model, which network features
//! to use per Appendix C) and the prediction threshold of §5.4.

use gps_types::GpsError;

/// Which network-layer features the model conditions on (Appendix C sweeps
/// /16../23 and ASN; the shipped configuration keeps /16 + ASN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetFeature {
    /// The enclosing subnet at this prefix length.
    Slash(u8),
    /// The autonomous system.
    Asn,
}

impl NetFeature {
    pub fn label(self) -> String {
        match self {
            NetFeature::Slash(n) => format!("/{n}"),
            NetFeature::Asn => "ASN".to_string(),
        }
    }
}

/// Which of the four conditional-probability classes (Eq. 4–7) to model.
/// All four are on in the paper's configuration; the `ablation`
/// experiment switches them individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interactions {
    /// Eq. 4: P(Portₐ | Port_b)
    pub transport: bool,
    /// Eq. 5: P(Portₐ | Port_b, App_b)
    pub transport_app: bool,
    /// Eq. 6: P(Portₐ | Port_b, Net)
    pub transport_net: bool,
    /// Eq. 7: P(Portₐ | Port_b, App_b, Net)
    pub transport_app_net: bool,
}

impl Interactions {
    pub const ALL: Interactions = Interactions {
        transport: true,
        transport_app: true,
        transport_net: true,
        transport_app_net: true,
    };

    /// Eq. 4 only — the TGA-adjacent ablation.
    pub const TRANSPORT_ONLY: Interactions = Interactions {
        transport: true,
        transport_app: false,
        transport_net: false,
        transport_app_net: false,
    };

    pub fn any(&self) -> bool {
        self.transport || self.transport_app || self.transport_net || self.transport_app_net
    }
}

/// The §5.4 discard threshold for "most predictive feature" probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinProb {
    /// A fixed threshold (the paper uses 1e-5 ≈ the random-probe hit rate of
    /// most ports on the real Internet).
    Fixed(f64),
    /// Derive the threshold from the seed scan: the median per-port hit rate
    /// of random probing in the observed universe. Scale-free, so it works
    /// for simulated universes much smaller than 3.7B addresses.
    Auto,
}

/// Full GPS configuration.
#[derive(Debug, Clone)]
pub struct GpsConfig {
    /// Seed-scan size as a fraction of the address space (§5.1; the paper
    /// evaluates 0.1%–2%).
    pub seed_fraction: f64,
    /// Scanning step size: prefix length of the subnet exhaustively scanned
    /// around each prior (§5.3; Figure 5 sweeps /0../20).
    pub step_prefix: u8,
    /// Threshold below which feature→port rules are discarded (§5.4).
    pub min_prob: MinProb,
    /// Which conditional-probability classes to model.
    pub interactions: Interactions,
    /// Network-layer features (Appendix C).
    pub net_features: Vec<NetFeature>,
    /// Bandwidth constraint `c1` (Equation 3) in units of 100% scans;
    /// `None` = unconstrained.
    pub budget_scans: Option<f64>,
    /// Hard cap on emitted predictions (memory guard for huge runs).
    pub max_predictions: usize,
    /// Approximate number of checkpoints recorded on discovery curves.
    pub curve_points: usize,
    /// After predictions are exhausted, keep randomly probing un-probed
    /// space (§6.3's optional tail). Modeled analytically; off by default.
    pub residual_random: bool,
}

impl Default for GpsConfig {
    fn default() -> Self {
        GpsConfig {
            seed_fraction: 0.01,
            step_prefix: 16,
            min_prob: MinProb::Auto,
            interactions: Interactions::ALL,
            net_features: vec![NetFeature::Slash(16), NetFeature::Asn],
            budget_scans: None,
            max_predictions: 20_000_000,
            curve_points: 256,
            residual_random: false,
        }
    }
}

impl GpsConfig {
    pub fn validate(&self) -> Result<(), GpsError> {
        if !(0.0 < self.seed_fraction && self.seed_fraction <= 1.0) {
            return Err(GpsError::config("seed_fraction", "must be in (0, 1]"));
        }
        if self.step_prefix > 32 {
            return Err(GpsError::config("step_prefix", "must be 0..=32"));
        }
        if let MinProb::Fixed(p) = self.min_prob {
            if !(0.0..=1.0).contains(&p) {
                return Err(GpsError::config("min_prob", "must be in [0, 1]"));
            }
        }
        if !self.interactions.any() {
            return Err(GpsError::config(
                "interactions",
                "at least one class required",
            ));
        }
        if self.curve_points == 0 {
            return Err(GpsError::config("curve_points", "must be > 0"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        GpsConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_values() {
        let mut c = GpsConfig {
            seed_fraction: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = GpsConfig {
            step_prefix: 33,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = GpsConfig {
            min_prob: MinProb::Fixed(1.5),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = GpsConfig {
            interactions: Interactions {
                transport: false,
                transport_app: false,
                transport_net: false,
                transport_app_net: false,
            },
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn interaction_presets() {
        let (all, transport_only) = (Interactions::ALL, Interactions::TRANSPORT_ONLY);
        assert!(all.any());
        assert!(transport_only.any());
        assert!(!transport_only.transport_app);
    }

    #[test]
    fn net_feature_labels() {
        assert_eq!(NetFeature::Slash(16).label(), "/16");
        assert_eq!(NetFeature::Asn.label(), "ASN");
    }
}
