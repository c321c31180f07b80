//! Compiled struct-of-arrays prediction core.
//!
//! [`FeatureRules`] and the §5.3 priors list are built as hash maps — the
//! right shape for *training*, where keys arrive in model order, but the
//! wrong shape for *querying*: every warm lookup chases a hashed bucket to
//! a separately allocated `Vec`, and every cold lookup clones a ranked
//! list out of a `HashMap<Subnet, Vec<..>>`. This module compiles both
//! into dense, arena-backed forms shared by the offline pipeline and the
//! serving layer:
//!
//! - [`CompiledRules`] — conditioning keys interned to dense row ids
//!   (sorted by [`CondKey`] order), every row an `(offset, len)` slice
//!   into one contiguous `(u16 port, u64 prob-bits)` arena. Rows with
//!   identical target lists share storage, and a list that is a prefix of
//!   another points into the longer list's slice. Bare Eq. 4 keys resolve
//!   through a direct-indexed 65536-entry table — no hashing at all on
//!   the hottest lookup of the warm path.
//! - [`CompiledPriors`] — §5.3 rankings as sorted dense arrays: one
//!   subnet-base index (binary-searchable, `step_prefix` subnets only —
//!   the only granularity cold lookups can reach) over the same arena
//!   layout, with the global fallback ranking at the tail.
//!
//! [`CompiledRules`] is also the on-disk rules format: a snapshot's RULE
//! section is its key table and arenas ([`CompiledRules::parts`]), and a
//! load hands them to [`CompiledRules::from_parts`], which re-validates
//! the layout and rebuilds the lookup tables. [`CompiledPriors`] is not
//! stored: it is lossy (no scan order, no coverage counts, no non-step
//! subnets), so a snapshot keeps the ordered priors list and the serving
//! layer compiles this index from it at load.
//!
//! Probabilities are carried as raw `f64` bits end to end, so answers
//! assembled from the compiled form are **bit-identical** to the HashMap
//! path — asserted by the parity suite in `tests/property_invariants.rs`.

use std::collections::HashMap;

use gps_types::{DenseInterner, Ip, Port, Subnet};

use crate::model::{CondKey, NetKey};
use crate::predict::FeatureRules;
use crate::priors::PriorsEntry;

/// Sentinel row id: "no rule for this key".
const ROW_NONE: u32 = u32::MAX;

/// Pack an Eq. 6 key into one integer: tag in bits 62–63 (1 = slash,
/// 2 = ASN — never 0, so 0 doubles as the probe table's empty slot),
/// prefix length in 48–53, anchor port in 32–47, base/ASN in 0–31.
#[inline]
fn pack_net(port: u16, net: &NetKey) -> u64 {
    match *net {
        NetKey::Slash(len, base) => {
            (1 << 62) | ((len as u64) << 48) | ((port as u64) << 32) | base as u64
        }
        NetKey::Asn(asn) => (2 << 62) | ((port as u64) << 32) | asn as u64,
    }
}

/// Open-addressed, linear-probed map from packed Eq. 6 keys to row ids.
///
/// The warm path resolves two `PortNet` keys for every bare-port key, and
/// `HashMap<CondKey, _>`'s SipHash over the enum dominated that lookup.
/// Packing the key into a `u64` and mixing it with one multiply keeps the
/// whole probe to a handful of cycles; at ≤50% load the expected probe
/// chain is ~1 slot.
#[derive(Debug, Clone, PartialEq)]
struct NetIndex {
    /// Power-of-two slot count minus one.
    mask: u64,
    /// `(packed key, row id)`; packed key 0 marks an empty slot.
    slots: Vec<(u64, u32)>,
}

impl NetIndex {
    fn build(entries: impl ExactSizeIterator<Item = (u64, u32)>) -> NetIndex {
        let capacity = (entries.len().max(4) * 2).next_power_of_two() as u64;
        let mut index = NetIndex {
            mask: capacity - 1,
            slots: vec![(0, ROW_NONE); capacity as usize],
        };
        for (key, row) in entries {
            debug_assert_ne!(key, 0);
            let mut i = (mix(key) & index.mask) as usize;
            while index.slots[i].0 != 0 {
                i = (i + 1) & index.mask as usize;
            }
            index.slots[i] = (key, row);
        }
        index
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        let mut i = (mix(key) & self.mask) as usize;
        loop {
            let (slot_key, row) = self.slots[i];
            if slot_key == key {
                return Some(row);
            }
            if slot_key == 0 {
                return None;
            }
            i = (i + 1) & self.mask as usize;
        }
    }
}

/// Fibonacci-multiply mix: one multiply and a fold of the high bits,
/// enough to spread packed keys whose entropy sits in distinct bit ranges.
#[inline]
fn mix(key: u64) -> u64 {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// [`CompiledRules::parts`]: `(keys, offsets, lens, ports, prob_bits)`.
pub type RuleParts<'a> = (&'a [CondKey], &'a [u32], &'a [u32], &'a [u16], &'a [u64]);

/// The §5.4 rule list in query-optimized form. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRules {
    /// Conditioning keys, sorted by `CondKey` order; position = row id.
    keys: Vec<CondKey>,
    /// Per row: start of its target slice in the arenas.
    offsets: Vec<u32>,
    /// Per row: number of targets.
    lens: Vec<u32>,
    /// Target ports, all rows concatenated (rows may overlap via sharing).
    ports: Vec<u16>,
    /// Target probabilities as raw `f64` bits, parallel to `ports`.
    prob_bits: Vec<u64>,
    /// Direct index for bare Eq. 4 keys: port → row id (`ROW_NONE` = none).
    eq4: Box<[u32]>,
    /// Packed-key probe table for Eq. 6 keys — the warm path's other
    /// lookup class, served without hashing a `CondKey`.
    net_index: NetIndex,
    /// Row ids for the application key classes (Eq. 5/7, pipeline-only).
    index: HashMap<CondKey, u32>,
    /// Total (tuple → port) rule count, mirroring `FeatureRules::len`.
    num_rules: usize,
}

impl CompiledRules {
    /// Compile a rule map. Deterministic: identical rule content produces
    /// identical arenas regardless of hash iteration order.
    pub fn from_rules(rules: &FeatureRules) -> CompiledRules {
        let mut rows: Vec<(&CondKey, &Vec<(Port, f64)>)> = rules.iter().collect();
        rows.sort_by_key(|(k, _)| **k);

        // Intern each row's target list; identical lists collapse to one id.
        let mut lists: DenseInterner<Vec<(u16, u64)>> = DenseInterner::new();
        let row_lists: Vec<u32> = rows
            .iter()
            .map(|(_, targets)| {
                let list: Vec<(u16, u64)> = targets
                    .iter()
                    .map(|&(port, prob)| (port.0, prob.to_bits()))
                    .collect();
                lists.intern(&list)
            })
            .collect();

        // Lay out unique lists in one arena with prefix sharing: sorted
        // lexicographically, a list's prefixes sort immediately before it,
        // so writing in *reverse* order lets any list that prefixes its
        // successor point into the successor's (already written) slice —
        // and prefix-of-prefix chains collapse transitively.
        let mut order: Vec<u32> = (0..lists.len() as u32).collect();
        order.sort_by(|&a, &b| lists.resolve(a).cmp(lists.resolve(b)));
        let mut ports: Vec<u16> = Vec::new();
        let mut prob_bits: Vec<u64> = Vec::new();
        let mut list_offsets: Vec<u32> = vec![0; lists.len()];
        let mut prev: Option<(u32, u32)> = None; // (list id, offset)
        for &id in order.iter().rev() {
            let list = lists.resolve(id);
            let offset = match prev {
                Some((prev_id, prev_offset))
                    if lists.resolve(prev_id).starts_with(list.as_slice()) =>
                {
                    prev_offset
                }
                _ => {
                    let offset = ports.len() as u32;
                    for &(port, bits) in list {
                        ports.push(port);
                        prob_bits.push(bits);
                    }
                    offset
                }
            };
            list_offsets[id as usize] = offset;
            prev = Some((id, offset));
        }

        let keys: Vec<CondKey> = rows.iter().map(|(k, _)| **k).collect();
        let offsets: Vec<u32> = row_lists
            .iter()
            .map(|&id| list_offsets[id as usize])
            .collect();
        let lens: Vec<u32> = row_lists
            .iter()
            .map(|&id| lists.resolve(id).len() as u32)
            .collect();
        CompiledRules::from_parts(keys, offsets, lens, ports, prob_bits)
            .expect("freshly compiled rules are structurally valid")
    }

    /// Assemble from decoded parts (the GPSB `RULE` section), validating
    /// every structural invariant a query relies on, and build the
    /// in-memory lookup tables for all four key classes.
    pub fn from_parts(
        keys: Vec<CondKey>,
        offsets: Vec<u32>,
        lens: Vec<u32>,
        ports: Vec<u16>,
        prob_bits: Vec<u64>,
    ) -> Result<CompiledRules, String> {
        if offsets.len() != keys.len() || lens.len() != keys.len() {
            return Err("rule slice tables disagree with key count".into());
        }
        if ports.len() != prob_bits.len() {
            return Err("rule arenas disagree in length".into());
        }
        if keys.len() > ROW_NONE as usize {
            return Err("too many rule keys".into());
        }
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err("rule keys not sorted/unique".into());
        }
        let arena_len = ports.len() as u64;
        let mut num_rules = 0usize;
        for (&offset, &len) in offsets.iter().zip(&lens) {
            if offset as u64 + len as u64 > arena_len {
                return Err("rule slice exceeds arena".into());
            }
            num_rules += len as usize;
        }
        let mut eq4 = vec![ROW_NONE; 1 << 16].into_boxed_slice();
        let mut net_entries: Vec<(u64, u32)> = Vec::new();
        let mut index = HashMap::new();
        for (row, key) in keys.iter().enumerate() {
            match key {
                CondKey::Port(p) => eq4[p.0 as usize] = row as u32,
                CondKey::PortNet(p, net) => net_entries.push((pack_net(p.0, net), row as u32)),
                _ => {
                    index.insert(*key, row as u32);
                }
            }
        }
        Ok(CompiledRules {
            keys,
            offsets,
            lens,
            ports,
            prob_bits,
            eq4,
            net_index: NetIndex::build(net_entries.into_iter()),
            index,
            num_rules,
        })
    }

    /// Row id for a bare Eq. 4 key — one array load, no hashing.
    #[inline]
    pub fn port_row(&self, port: u16) -> Option<u32> {
        match self.eq4[port as usize] {
            ROW_NONE => None,
            row => Some(row),
        }
    }

    /// Row id for an Eq. 6 key — a packed-integer probe, no hashing of
    /// the `CondKey` enum.
    #[inline]
    pub fn net_row(&self, port: u16, net: &NetKey) -> Option<u32> {
        self.net_index.get(pack_net(port, net))
    }

    /// Row id for any key class.
    #[inline]
    pub fn row(&self, key: &CondKey) -> Option<u32> {
        match key {
            CondKey::Port(p) => self.port_row(p.0),
            CondKey::PortNet(p, net) => self.net_row(p.0, net),
            _ => self.index.get(key).copied(),
        }
    }

    /// A row's target slice: `(ports, probability bits)`, parallel arrays.
    #[inline]
    pub fn row_slices(&self, row: u32) -> (&[u16], &[u64]) {
        let offset = self.offsets[row as usize] as usize;
        let len = self.lens[row as usize] as usize;
        (
            &self.ports[offset..offset + len],
            &self.prob_bits[offset..offset + len],
        )
    }

    /// Targets of `key` as `(Port, f64)`, in stored (rule) order.
    pub fn get(&self, key: &CondKey) -> Option<impl Iterator<Item = (Port, f64)> + '_> {
        self.row(key).map(|row| {
            let (ports, bits) = self.row_slices(row);
            ports
                .iter()
                .zip(bits)
                .map(|(&p, &b)| (Port(p), f64::from_bits(b)))
        })
    }

    /// Total (tuple → port) rule count.
    pub fn len(&self) -> usize {
        self.num_rules
    }

    pub fn is_empty(&self) -> bool {
        self.num_rules == 0
    }

    /// Number of distinct conditioning keys.
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Arena length in entries (shared storage counted once).
    pub fn arena_len(&self) -> usize {
        self.ports.len()
    }

    /// Codec accessors (GPSB `RULE` section writer).
    pub fn parts(&self) -> RuleParts<'_> {
        (
            &self.keys,
            &self.offsets,
            &self.lens,
            &self.ports,
            &self.prob_bits,
        )
    }
}

/// The §5.3 priors rankings in query-optimized form. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPriors {
    /// The step prefix cold lookups key on.
    step_prefix: u8,
    /// Sorted bases of `step_prefix`-length subnets with a ranking.
    subnet_bases: Vec<u32>,
    /// Per subnet: start of its ranking in the arenas; one extra entry
    /// marks the end of the last subnet slice (= start of the global
    /// ranking's storage).
    subnet_offsets: Vec<u32>,
    /// Ranked ports, subnet slices concatenated, global ranking at the
    /// tail.
    ports: Vec<u16>,
    /// Normalized ranking weights as raw `f64` bits, parallel to `ports`.
    prob_bits: Vec<u64>,
    /// Length of the global ranking at the arena tail.
    global_len: u32,
}

impl CompiledPriors {
    /// Compile the priors list in one pass, normalizing coverage within
    /// each subnet (and globally) exactly as the HashMap serving path did:
    /// weights accumulate in entry order, so compiled cold answers are
    /// bit-identical.
    pub fn from_entries(priors: &[PriorsEntry], step_prefix: u8) -> CompiledPriors {
        // Group entries by subnet, preserving entry order within a group.
        let mut group_of: HashMap<Subnet, usize> = HashMap::new();
        let mut groups: Vec<(Subnet, Vec<(u16, f64)>)> = Vec::new();
        // Global ranking: per-port coverage accumulated in entry order.
        // The sums are integer-valued f64s, so addition order cannot
        // change the result while totals stay below 2^53 — the same
        // exactness the HashMap path has always leaned on.
        let mut global_acc: Vec<f64> = Vec::new();
        let mut global_touched: Vec<u16> = Vec::new();
        for entry in priors {
            let idx = *group_of.entry(entry.subnet).or_insert_with(|| {
                groups.push((entry.subnet, Vec::new()));
                groups.len() - 1
            });
            groups[idx].1.push((entry.port.0, entry.coverage as f64));
            if global_acc.is_empty() {
                global_acc = vec![0.0; 1 << 16];
            }
            if global_acc[entry.port.0 as usize] == 0.0 {
                global_touched.push(entry.port.0);
            }
            global_acc[entry.port.0 as usize] += entry.coverage as f64;
        }

        // Only step-prefix subnets are reachable by a cold lookup; sort
        // them by base for the binary-searchable index.
        let mut indexed: Vec<(u32, Vec<(u16, f64)>)> = groups
            .into_iter()
            .filter(|(subnet, _)| subnet.prefix_len() == step_prefix)
            .map(|(subnet, ranked)| (subnet.base().0, ranked))
            .collect();
        indexed.sort_by_key(|&(base, _)| base);

        let mut subnet_bases = Vec::with_capacity(indexed.len());
        let mut subnet_offsets = Vec::with_capacity(indexed.len() + 1);
        let mut ports: Vec<u16> = Vec::new();
        let mut prob_bits: Vec<u64> = Vec::new();
        for (base, mut ranked) in indexed {
            subnet_bases.push(base);
            subnet_offsets.push(ports.len() as u32);
            normalize(&mut ranked);
            for (port, prob) in ranked {
                ports.push(port);
                prob_bits.push(prob.to_bits());
            }
        }
        subnet_offsets.push(ports.len() as u32);

        // Global ranking at the tail. A port touched only by zero-coverage
        // entries keeps its (deduplicated) 0.0 weight, like the HashMap's
        // `or_default` did.
        let mut global: Vec<(u16, f64)> = global_touched
            .into_iter()
            .map(|port| (port, global_acc[port as usize]))
            .collect();
        normalize(&mut global);
        let global_len = global.len() as u32;
        for (port, prob) in global {
            ports.push(port);
            prob_bits.push(prob.to_bits());
        }

        CompiledPriors {
            step_prefix,
            subnet_bases,
            subnet_offsets,
            ports,
            prob_bits,
            global_len,
        }
    }

    /// Cold ranking for an IP: its step subnet's slice, or the global
    /// fallback. Returns `(ports, probability bits)`, parallel arrays,
    /// already normalized and sorted descending.
    #[inline]
    pub fn cold(&self, ip: Ip) -> (&[u16], &[u64]) {
        let base = Subnet::of_ip(ip, self.step_prefix).base().0;
        match self.subnet_bases.binary_search(&base) {
            Ok(idx) => {
                let start = self.subnet_offsets[idx] as usize;
                let end = self.subnet_offsets[idx + 1] as usize;
                (&self.ports[start..end], &self.prob_bits[start..end])
            }
            Err(_) => self.global(),
        }
    }

    /// The global fallback ranking.
    #[inline]
    pub fn global(&self) -> (&[u16], &[u64]) {
        let start = self.ports.len() - self.global_len as usize;
        (&self.ports[start..], &self.prob_bits[start..])
    }

    /// Number of indexed (step-prefix) subnets.
    pub fn num_subnets(&self) -> usize {
        self.subnet_bases.len()
    }
}

/// Coverage → within-group probability weight, then descending sort with
/// port-ascending tiebreak. Mirrors the serving layer's ranking exactly.
fn normalize(ranked: &mut [(u16, f64)]) {
    let total: f64 = ranked.iter().map(|&(_, c)| c).sum();
    if total > 0.0 {
        for (_, c) in ranked.iter_mut() {
            *c /= total;
        }
    }
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// Both compiled artifacts: everything a query (warm or cold) touches.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    pub rules: CompiledRules,
    pub priors: CompiledPriors,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetKey;

    fn rules_fixture() -> FeatureRules {
        let mut rules: HashMap<CondKey, Vec<(Port, f64)>> = HashMap::new();
        rules.insert(
            CondKey::Port(Port(80)),
            vec![(Port(443), 0.8), (Port(22), 0.3), (Port(21), 0.1)],
        );
        // Identical list under a different key: must share storage.
        rules.insert(
            CondKey::Port(Port(8080)),
            vec![(Port(443), 0.8), (Port(22), 0.3), (Port(21), 0.1)],
        );
        // A strict prefix of the list above: must point into its slice.
        rules.insert(
            CondKey::PortNet(Port(80), NetKey::Asn(7)),
            vec![(Port(443), 0.8), (Port(22), 0.3)],
        );
        rules.insert(CondKey::Port(Port(22)), vec![(Port(2222), 0.5)]);
        FeatureRules::from_parts(rules)
    }

    #[test]
    fn compiled_rules_match_hashmap_lookups() {
        let rules = rules_fixture();
        let compiled = CompiledRules::from_rules(&rules);
        assert_eq!(compiled.len(), rules.len());
        assert_eq!(compiled.num_keys(), rules.num_keys());
        for (key, targets) in rules.iter() {
            let got: Vec<(Port, f64)> = compiled.get(key).expect("key compiled").collect();
            assert_eq!(&got, targets, "targets for {key:?}");
        }
        assert!(compiled.get(&CondKey::Port(Port(9))).is_none());
        assert!(compiled
            .row(&CondKey::PortNet(Port(80), NetKey::Asn(8)))
            .is_none());
    }

    #[test]
    fn identical_and_prefix_lists_share_arena_storage() {
        let compiled = CompiledRules::from_rules(&rules_fixture());
        // 4 rows, 7 rule entries total — but only one 3-entry list plus
        // the 1-entry list are stored (the duplicate and the prefix both
        // alias the 3-entry slice).
        assert_eq!(compiled.len(), 9);
        assert_eq!(compiled.arena_len(), 4);
        let dup_a = compiled.row(&CondKey::Port(Port(80))).unwrap();
        let dup_b = compiled.row(&CondKey::Port(Port(8080))).unwrap();
        assert_eq!(compiled.row_slices(dup_a), compiled.row_slices(dup_b));
        let prefix = compiled
            .row(&CondKey::PortNet(Port(80), NetKey::Asn(7)))
            .unwrap();
        let (long_ports, _) = compiled.row_slices(dup_a);
        let (short_ports, _) = compiled.row_slices(prefix);
        assert_eq!(short_ports, &long_ports[..2]);
    }

    #[test]
    fn compilation_is_deterministic() {
        // Build the same content through different insertion orders.
        let a = CompiledRules::from_rules(&rules_fixture());
        let mut reversed: Vec<(CondKey, Vec<(Port, f64)>)> = rules_fixture()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        reversed.reverse();
        let b =
            CompiledRules::from_rules(&FeatureRules::from_parts(reversed.into_iter().collect()));
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_rejects_structural_corruption() {
        let compiled = CompiledRules::from_rules(&rules_fixture());
        let (keys, offsets, lens, ports, bits) = compiled.parts();
        // Slice past the arena end.
        let mut bad = offsets.to_vec();
        bad[0] = ports.len() as u32;
        assert!(CompiledRules::from_parts(
            keys.to_vec(),
            bad,
            lens.to_vec(),
            ports.to_vec(),
            bits.to_vec()
        )
        .is_err());
        // Unsorted keys.
        let mut bad_keys = keys.to_vec();
        bad_keys.reverse();
        assert!(CompiledRules::from_parts(
            bad_keys,
            offsets.to_vec(),
            lens.to_vec(),
            ports.to_vec(),
            bits.to_vec()
        )
        .is_err());
        // Table length mismatch.
        assert!(CompiledRules::from_parts(
            keys.to_vec(),
            offsets[..1].to_vec(),
            lens.to_vec(),
            ports.to_vec(),
            bits.to_vec()
        )
        .is_err());
    }

    fn priors_fixture() -> Vec<PriorsEntry> {
        vec![
            PriorsEntry {
                port: Port(80),
                subnet: Subnet::of_ip(Ip::from_octets(10, 1, 0, 0), 16),
                coverage: 30,
            },
            PriorsEntry {
                port: Port(22),
                subnet: Subnet::of_ip(Ip::from_octets(10, 1, 0, 0), 16),
                coverage: 10,
            },
            PriorsEntry {
                port: Port(443),
                subnet: Subnet::of_ip(Ip::from_octets(10, 2, 0, 0), 16),
                coverage: 5,
            },
            // A non-step-prefix entry: feeds the global ranking but is
            // unreachable by cold lookups (exactly like the HashMap path).
            PriorsEntry {
                port: Port(8443),
                subnet: Subnet::of_ip(Ip::from_octets(10, 3, 0, 0), 24),
                coverage: 50,
            },
        ]
    }

    #[test]
    fn cold_lookup_finds_subnet_or_global() {
        let priors = CompiledPriors::from_entries(&priors_fixture(), 16);
        assert_eq!(priors.num_subnets(), 2);
        let (ports, bits) = priors.cold(Ip::from_octets(10, 1, 9, 9));
        assert_eq!(ports, &[80, 22]);
        assert!((f64::from_bits(bits[0]) - 0.75).abs() < 1e-12);
        // Unknown subnet → global; /24 entry is global-only.
        let (global_ports, _) = priors.cold(Ip::from_octets(99, 0, 0, 1));
        assert_eq!(global_ports, priors.global().0);
        assert!(global_ports.contains(&8443));
        let (miss_ports, _) = priors.cold(Ip::from_octets(10, 3, 0, 1));
        assert_eq!(miss_ports, priors.global().0, "/24 subnet not indexed");
    }
}
