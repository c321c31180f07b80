//! Universe sizing and realism knobs.
//!
//! The synthetic Internet replaces the paper's two gated datasets (Censys
//! universal data, LZR 1% scan). Every knob here maps to a property the
//! paper measures; the defaults are tuned so the §4 statistics and the §6
//! curve *shapes* reproduce (see DESIGN.md §6 and the `sec4` experiment).

use gps_types::GpsError;

/// Configuration for [`crate::Internet::generate`].
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Master seed. Two universes with equal configs are identical.
    pub seed: u64,
    /// Number of allocated /16 blocks. The "IPv4 address space" of the
    /// simulation has `num_slash16 × 65536` addresses; bandwidth is reported
    /// in units of 100% scans of that space.
    pub num_slash16: u32,
    /// Size of the simulated port space: services live on ports
    /// `0..port_space` and an "all ports" sweep costs `port_space` probes
    /// per address. The paper's 65,536 ports over 3.7B addresses scale to
    /// 12,288 ports over our millions of addresses — like the address-space
    /// scaling, this preserves the *ratio* between per-port exhaustive scans
    /// and all-port sweeps that every bandwidth comparison depends on
    /// (DESIGN.md §1).
    pub port_space: u16,
    /// Global multiplier on per-profile host densities (1.0 ≈ a few percent
    /// of addresses hosting something, like the real IPv4 space).
    pub density_scale: f64,
    /// Fraction of hosts that are middleboxes serving "pseudo services" on
    /// >1000 contiguous ports (Appendix B measures these as dominating 96%
    /// > of ports before filtering).
    pub pseudo_host_fraction: f64,
    /// Multiplier on per-template port-forwarding probabilities. Forwarded
    /// services move to a uniformly random high port — the paper finds at
    /// least 55% of services on the 99% most uncommon ports are likely
    /// forwarded, and they bound every predictor's recall (§7).
    pub forward_scale: f64,
    /// Multiplier on per-template 10-day churn probabilities (§3 measures
    /// 9% of services / 15% of normalized services disappearing in 10 days).
    pub churn_scale: f64,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            seed: 0xC0FFEE,
            num_slash16: 32,
            port_space: 12288,
            density_scale: 1.0,
            pseudo_host_fraction: 0.008,
            forward_scale: 1.0,
            churn_scale: 0.65,
        }
    }
}

impl UniverseConfig {
    /// A small universe for unit tests and `--quick` experiment runs.
    pub fn tiny(seed: u64) -> Self {
        UniverseConfig {
            seed,
            num_slash16: 4,
            ..Default::default()
        }
    }

    /// The default experiment universe (≈8.4M addresses, ≈3×10⁵ hosts).
    ///
    /// 128 blocks rather than 32: GPS's bandwidth advantage comes from
    /// ports/deployments concentrating in few networks, and the maximum
    /// advantage over per-port exhaustive scanning is bounded by the number
    /// of /16 blocks (a (port, /16) priors tuple costs 1/num_blocks of a
    /// full scan).
    pub fn standard(seed: u64) -> Self {
        UniverseConfig {
            seed,
            num_slash16: 128,
            ..Default::default()
        }
    }

    /// Total number of addresses in the simulated "IPv4 space".
    pub fn universe_size(&self) -> u64 {
        self.num_slash16 as u64 * 65536
    }

    /// Validate knob domains.
    pub fn validate(&self) -> Result<(), GpsError> {
        if self.num_slash16 == 0 || self.num_slash16 > 8192 {
            return Err(GpsError::config("num_slash16", "must be in 1..=8192"));
        }
        if self.port_space < 2048 {
            return Err(GpsError::config(
                "port_space",
                "must be >= 2048 (templates place services below that)",
            ));
        }
        for (name, v) in [
            ("density_scale", self.density_scale),
            ("forward_scale", self.forward_scale),
            ("churn_scale", self.churn_scale),
        ] {
            if !(0.0..=100.0).contains(&v) {
                return Err(GpsError::config(name, format!("{v} out of [0,100]")));
            }
        }
        if !(0.0..=0.5).contains(&self.pseudo_host_fraction) {
            return Err(GpsError::config("pseudo_host_fraction", "out of [0,0.5]"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        UniverseConfig::default().validate().unwrap();
        UniverseConfig::tiny(1).validate().unwrap();
        UniverseConfig::standard(1).validate().unwrap();
    }

    #[test]
    fn universe_size_scales_with_blocks() {
        let c = UniverseConfig {
            num_slash16: 64,
            ..Default::default()
        };
        assert_eq!(c.universe_size(), 64 * 65536);
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let c = UniverseConfig {
            num_slash16: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = UniverseConfig {
            density_scale: -1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = UniverseConfig {
            pseudo_host_fraction: 0.9,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
