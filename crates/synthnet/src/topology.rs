//! Network topology: allocated /16 blocks, autonomous systems, profiles.
//!
//! §4: *"Internet services are more likely to appear together in networks"* —
//! 81% of services repeat on the same port within their /16. The topology
//! generator produces that locality structurally: each /16 belongs to one AS,
//! each AS has a profile (residential ISP, hosting, …) that skews which
//! device templates its address space hosts, and a few ASes carry *affinity
//! slots* that pin regional-vendor templates (the Freebox/Distributel/Bizland
//! analogs of §5.2 and §6.6) to exactly one network.

use std::collections::HashMap;

use gps_types::{Asn, Ip, Rng, Subnet};

use crate::config::UniverseConfig;
use crate::template::{AsProfile, NUM_AFFINITY_SLOTS};

/// One allocated /16 block.
#[derive(Debug, Clone)]
pub struct BlockInfo {
    /// Base address of the /16 (low 16 bits zero).
    pub base: u32,
    pub asn: Asn,
    pub profile: AsProfile,
    /// Fraction of the block's 65,536 addresses that host something.
    pub density: f64,
    /// Affinity slot held by this block's AS, if any.
    pub affinity: Option<u8>,
    /// Near-full access pool (dense, homogeneous CPE deployment) — the
    /// source of the priors scan's high-precision head start (Figure 3).
    pub pool: bool,
}

impl BlockInfo {
    pub fn subnet(&self) -> Subnet {
        Subnet::of_ip(Ip(self.base), 16)
    }
}

/// The allocated address space: /16 blocks grouped into ASes.
#[derive(Debug)]
pub struct Topology {
    blocks: Vec<BlockInfo>,
    by_prefix: HashMap<u16, usize>,
}

impl Topology {
    /// Generate deterministically from the universe config.
    pub fn generate(config: &UniverseConfig, rng: &mut Rng) -> Topology {
        let n = config.num_slash16 as usize;

        // Sample distinct /16 prefixes from 1.0.0.0–223.255.0.0 (skip 0/8
        // and multicast/reserved space so addresses look plausible).
        let lo = 0x0100usize; // 1.0.0.0's upper 16 bits
        let hi = 0xDFFFusize; // 223.255.0.0's upper 16 bits
        let prefixes: Vec<u16> = rng
            .sample_indices(hi - lo + 1, n)
            .into_iter()
            .map(|i| (lo + i) as u16)
            .collect();
        let mut prefixes = prefixes;
        prefixes.sort_unstable();

        // Group blocks into ASes: each AS takes 1..=6 consecutive blocks,
        // heavy-tailed so some ISPs own several /16s (needed for ASN to
        // out-predict /16, Appendix C/Table 4).
        let profile_weights: Vec<f64> = AsProfile::ALL.iter().map(|p| p.frequency()).collect();
        let mut blocks = Vec::with_capacity(n);
        let mut asn_counter = 100u32;
        let mut affinity_remaining: Vec<u8> = (0..NUM_AFFINITY_SLOTS).collect();
        let mut i = 0;
        while i < prefixes.len() {
            let take = 1 + rng.geometric(0.55, 5) as usize;
            let take = take.min(prefixes.len() - i);
            let profile = AsProfile::ALL[rng.choose_weighted(&profile_weights)];
            let asn = Asn(asn_counter);
            asn_counter += rng.gen_range(40) as u32 + 1;

            // Hand affinity slots to the first suitable ASes: slot 0
            // (Freebox) and 1 (Distributel) want residential, slot 2
            // (Bizland) wants hosting.
            let affinity = affinity_remaining
                .iter()
                .position(|&slot| match slot {
                    0 | 1 => profile == AsProfile::Residential,
                    _ => profile == AsProfile::Hosting,
                })
                .map(|pos| affinity_remaining.remove(pos));

            for _ in 0..take {
                let density_jitter = 0.5 + rng.f64();
                // A slice of access-network blocks are near-full DHCP pools:
                // these give the priors scan its high-precision head start
                // (Figure 3's 36%-precision opening).
                let pool = matches!(profile, AsProfile::Residential | AsProfile::Mobile)
                    && rng.chance(0.15);
                let pool_boost = if pool { 8.0 } else { 1.0 };
                let cap = if pool { 0.62 } else { 0.40 };
                blocks.push(BlockInfo {
                    base: (prefixes[i] as u32) << 16,
                    asn,
                    profile,
                    density: (profile.host_density()
                        * config.density_scale
                        * density_jitter
                        * pool_boost)
                        .min(cap),
                    affinity,
                    pool,
                });
                i += 1;
            }
        }

        let by_prefix = blocks
            .iter()
            .enumerate()
            .map(|(idx, b)| ((b.base >> 16) as u16, idx))
            .collect();

        Topology { blocks, by_prefix }
    }

    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// The block containing `ip`, if the /16 is allocated.
    pub fn block_of(&self, ip: Ip) -> Option<&BlockInfo> {
        self.by_prefix
            .get(&((ip.0 >> 16) as u16))
            .map(|&i| &self.blocks[i])
    }

    /// ASN of `ip`, if allocated.
    pub fn asn_of(&self, ip: Ip) -> Option<Asn> {
        self.block_of(ip).map(|b| b.asn)
    }

    /// Whether `ip` is inside the simulated universe.
    pub fn is_allocated(&self, ip: Ip) -> bool {
        self.by_prefix.contains_key(&((ip.0 >> 16) as u16))
    }

    /// Number of distinct ASes.
    pub fn num_ases(&self) -> u32 {
        self.blocks
            .windows(2)
            .filter(|w| w[0].asn != w[1].asn)
            .count() as u32
            + 1
    }

    /// Total allocated addresses.
    pub fn universe_size(&self) -> u64 {
        self.blocks.len() as u64 * 65536
    }

    /// Iterate over allocated /16 subnets.
    pub fn subnets(&self) -> impl Iterator<Item = Subnet> + '_ {
        self.blocks.iter().map(|b| b.subnet())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(n: u32, seed: u64) -> Topology {
        let config = UniverseConfig {
            num_slash16: n,
            seed,
            ..Default::default()
        };
        let mut rng = Rng::new(seed);
        Topology::generate(&config, &mut rng)
    }

    #[test]
    fn generates_requested_block_count() {
        let t = topo(32, 1);
        assert_eq!(t.blocks().len(), 32);
        assert_eq!(t.universe_size(), 32 * 65536);
    }

    #[test]
    fn blocks_have_distinct_prefixes() {
        let t = topo(64, 2);
        let mut prefixes: Vec<u32> = t.blocks().iter().map(|b| b.base).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 64);
        for b in t.blocks() {
            assert_eq!(b.base & 0xFFFF, 0, "block base must be /16-aligned");
        }
    }

    #[test]
    fn lookup_round_trip() {
        let t = topo(16, 3);
        for b in t.blocks() {
            let inside = Ip(b.base | 0x1234);
            assert!(t.is_allocated(inside));
            assert_eq!(t.asn_of(inside), Some(b.asn));
            assert_eq!(t.block_of(inside).unwrap().base, b.base);
        }
        // An unallocated /16 (224.x is never allocated).
        assert!(!t.is_allocated(Ip::from_octets(224, 0, 0, 1)));
        assert_eq!(t.asn_of(Ip::from_octets(224, 0, 0, 1)), None);
    }

    #[test]
    fn deterministic_across_generations() {
        let a = topo(32, 42);
        let b = topo(32, 42);
        for (x, y) in a.blocks().iter().zip(b.blocks()) {
            assert_eq!(x.base, y.base);
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.profile, y.profile);
            assert!((x.density - y.density).abs() < 1e-12);
        }
    }

    #[test]
    fn some_ases_own_multiple_blocks() {
        let t = topo(64, 5);
        use std::collections::HashMap;
        let mut per_as: HashMap<u32, usize> = HashMap::new();
        for b in t.blocks() {
            *per_as.entry(b.asn.0).or_default() += 1;
        }
        assert!(per_as.values().any(|&c| c > 1), "expected multi-/16 ASes");
        assert!(per_as.len() > 5, "expected multiple ASes");
    }

    #[test]
    fn affinity_slots_assigned_once() {
        let t = topo(64, 7);
        use std::collections::HashMap;
        let mut slot_as: HashMap<u8, std::collections::HashSet<u32>> = HashMap::new();
        for b in t.blocks() {
            if let Some(slot) = b.affinity {
                slot_as.entry(slot).or_default().insert(b.asn.0);
            }
        }
        for (slot, ases) in &slot_as {
            assert_eq!(ases.len(), 1, "slot {slot} must belong to exactly one AS");
        }
        // With 64 blocks all three slots should have found a home.
        assert_eq!(slot_as.len(), NUM_AFFINITY_SLOTS as usize);
    }

    #[test]
    fn densities_in_range() {
        let t = topo(32, 9);
        for b in t.blocks() {
            assert!(b.density > 0.0 && b.density <= 0.62);
        }
    }
}
