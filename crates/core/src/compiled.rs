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
//!   the hottest lookup of the warm path. Every other key class (Eq.
//!   5/6/7) resolves through one open-addressed table of row ids, probed
//!   with a multiply-mix of the key's fields and confirmed against the
//!   key table, so no lookup hashes the `CondKey` enum.
//! - [`CompiledRules::expand`] — the one §5.4 expansion kernel: a host's
//!   open services (port + application features) and net keys in, every
//!   matching Eq. 4–7 rule max-folded per port into a [`PredictScratch`].
//!   The pipeline's `build_predictions` runs it once per priors-scan
//!   host; a warm server query runs it once with feature-less evidence.
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

use gps_types::{DenseInterner, FeatureValue, Ip, Port, Subnet};

use crate::model::{CondKey, NetKey};
use crate::predict::FeatureRules;
use crate::priors::PriorsEntry;

/// Sentinel row id: "no rule for this key", and an empty probe slot.
const ROW_NONE: u32 = u32::MAX;

/// Fibonacci-multiply mix: one multiply and a fold of the high bits,
/// enough to spread words whose entropy sits in distinct bit ranges.
#[inline]
fn mix(key: u64) -> u64 {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// Probe-table hash of a key: the anchor port and application feature
/// in one word, the net key in another, each through [`mix`]. Distinct
/// keys may collide — a probe confirms its row against the key table —
/// so the words need no tag per class.
#[inline]
fn key_hash(key: &CondKey) -> u64 {
    let app = |f: &FeatureValue| ((f.kind as u64 + 1) << 48) | ((f.value.0 as u64) << 16);
    let net = |n: &NetKey| match *n {
        NetKey::Slash(len, base) => ((len as u64 + 1) << 32) | base as u64,
        NetKey::Asn(asn) => asn as u64,
    };
    let (word, net) = match key {
        CondKey::Port(p) => (p.0 as u64, 0),
        CondKey::PortApp(p, f) => (p.0 as u64 | app(f), 0),
        CondKey::PortNet(p, n) => (p.0 as u64, net(n)),
        CondKey::PortAppNet(p, f, n) => (p.0 as u64 | app(f), net(n)),
    };
    mix(mix(word) ^ net)
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
    /// Row ids of every Eq. 5/6/7 key, open-addressed and linear-probed
    /// from [`key_hash`]; `ROW_NONE` marks an empty slot. Power-of-two
    /// length, at most half full, so a probe chain is about one slot.
    probe: Box<[u32]>,
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
        let hashed = keys
            .iter()
            .filter(|key| !matches!(key, CondKey::Port(_)))
            .count();
        let mut probe = vec![ROW_NONE; (hashed.max(4) * 2).next_power_of_two()].into_boxed_slice();
        let mask = probe.len() - 1;
        for (row, key) in keys.iter().enumerate() {
            if let CondKey::Port(p) = key {
                eq4[p.0 as usize] = row as u32;
                continue;
            }
            // Keys are unique (checked above), so every insert finds a
            // free slot without meeting its own key.
            let mut slot = key_hash(key) as usize & mask;
            while probe[slot] != ROW_NONE {
                slot = (slot + 1) & mask;
            }
            probe[slot] = row as u32;
        }
        Ok(CompiledRules {
            keys,
            offsets,
            lens,
            ports,
            prob_bits,
            eq4,
            probe,
            num_rules,
        })
    }

    /// Row id for any key class: Eq. 4 through the direct index, the
    /// others through the probe table.
    ///
    /// `always`, here and on [`fold`](Self::fold): the serving layer
    /// instantiates [`expand`](Self::expand) in another crate, and with
    /// plain `#[inline]` the release build (no LTO) left both out of line
    /// there, about 10 % of a wide warm query.
    #[inline(always)]
    fn row(&self, key: &CondKey) -> Option<u32> {
        let row = if let CondKey::Port(p) = key {
            self.eq4[p.0 as usize]
        } else {
            let mask = self.probe.len() - 1;
            let mut slot = key_hash(key) as usize & mask;
            loop {
                match self.probe[slot] {
                    ROW_NONE => break ROW_NONE,
                    row if self.keys[row as usize] == *key => break row,
                    _ => slot = (slot + 1) & mask,
                }
            }
        };
        (row != ROW_NONE).then_some(row)
    }

    /// The §5.4 expansion of one host — the kernel both the pipeline's
    /// [`build_predictions`](crate::build_predictions) and a warm server
    /// query run. `services` are the host's open services, each its port
    /// and application features; `nets` are the host's net keys. Every
    /// Eq. 4–7 key they form is looked up, and the targets of each
    /// matching rule are folded into `scratch` (max per port, open ports
    /// excluded). Read the result with [`PredictScratch::harvest`].
    #[inline]
    pub fn expand<'f>(
        &self,
        scratch: &mut PredictScratch,
        services: impl Iterator<Item = (Port, &'f [FeatureValue])> + Clone,
        nets: impl Iterator<Item = NetKey> + Clone,
    ) {
        scratch.begin();
        for (port, _) in services.clone() {
            scratch.mark_open(port.0);
        }
        for (port, features) in services {
            self.fold(scratch, &CondKey::Port(port));
            for &f in features {
                self.fold(scratch, &CondKey::PortApp(port, f));
            }
            for net in nets.clone() {
                self.fold(scratch, &CondKey::PortNet(port, net));
                for &f in features {
                    self.fold(scratch, &CondKey::PortAppNet(port, f, net));
                }
            }
        }
    }

    /// Fold the targets of `key`'s rule, if it has one.
    #[inline(always)]
    fn fold(&self, scratch: &mut PredictScratch, key: &CondKey) {
        if let Some(row) = self.row(key) {
            let (ports, prob_bits) = self.row_slices(row);
            scratch.fold(ports, prob_bits);
        }
    }

    /// A row's target slice: `(ports, probability bits)`, parallel arrays.
    #[inline]
    fn row_slices(&self, row: u32) -> (&[u16], &[u64]) {
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

/// Reusable working memory for [`CompiledRules::expand`].
///
/// The fold is a port-indexed dense accumulator: one `f64` slot per
/// possible port, epoch-stamped so "reset" is a counter bump instead of a
/// clear, plus a touched-port list to harvest results without scanning all
/// 65536 slots. A long-lived caller (each serving thread, one pipeline
/// expansion) pays the ~1 MiB allocation once; the per-host cost is a few
/// array stores.
#[derive(Default)]
pub struct PredictScratch {
    /// Best probability seen for each port this epoch (valid iff stamped).
    probs: Vec<f64>,
    /// Epoch stamp per port slot.
    stamp: Vec<u32>,
    /// Epoch stamp marking the host's own open ports (excluded from
    /// results).
    open_stamp: Vec<u32>,
    /// Current epoch; 0 means "never used".
    epoch: u32,
    /// Ports touched this epoch, in first-touch order.
    touched: Vec<u16>,
}

impl PredictScratch {
    /// Start a new epoch, lazily sizing the tables on first use.
    fn begin(&mut self) {
        if self.probs.is_empty() {
            self.probs = vec![0.0; 1 << 16];
            self.stamp = vec![0; 1 << 16];
            self.open_stamp = vec![0; 1 << 16];
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrap: old stamps would alias the new epoch; clear once
            // every 2^32 expansions.
            self.stamp.fill(0);
            self.open_stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }

    #[inline]
    fn mark_open(&mut self, port: u16) {
        self.open_stamp[port as usize] = self.epoch;
    }

    /// Fold one rule slice, keeping the max probability per port. This
    /// replicates the HashMap path's `or_insert(0.0)` + `prob > slot`
    /// exactly: a first touch installs 0.0 before comparing, so a
    /// zero-or-NaN probability still surfaces the port (at weight 0.0)
    /// without ever outranking a real rule.
    #[inline]
    fn fold(&mut self, ports: &[u16], prob_bits: &[u64]) {
        for (&port, &bits) in ports.iter().zip(prob_bits) {
            let slot = port as usize;
            if self.open_stamp[slot] == self.epoch {
                continue;
            }
            let prob = f64::from_bits(bits);
            if self.stamp[slot] != self.epoch {
                self.stamp[slot] = self.epoch;
                self.touched.push(port);
                self.probs[slot] = if prob > 0.0 { prob } else { 0.0 };
            } else if prob > self.probs[slot] {
                self.probs[slot] = prob;
            }
        }
    }

    /// The last expansion's result, unsorted: every port a matched rule
    /// named, in first-touch order, with its best probability.
    pub fn harvest(&self) -> impl Iterator<Item = (Port, f64)> + '_ {
        self.touched
            .iter()
            .map(|&port| (Port(port), self.probs[port as usize]))
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
        // The application classes: a prefix of the Eq. 7 /16 list, and an
        // Eq. 7 ASN list identical to `Port(22)`'s.
        rules.insert(
            CondKey::PortApp(Port(80), server(5)),
            vec![(Port(8443), 0.7)],
        );
        rules.insert(
            CondKey::PortAppNet(Port(80), server(5), NetKey::Slash(16, 0x0A01_0000)),
            vec![(Port(8443), 0.7), (Port(9000), 0.2)],
        );
        rules.insert(
            CondKey::PortAppNet(Port(80), server(5), NetKey::Asn(7)),
            vec![(Port(2222), 0.5)],
        );
        FeatureRules::from_parts(rules)
    }

    fn server(sym: u32) -> FeatureValue {
        FeatureValue::new(gps_types::FeatureKind::HttpServer, gps_types::Sym(sym))
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
        // One miss per key class.
        for miss in [
            CondKey::Port(Port(9)),
            CondKey::PortApp(Port(80), server(6)),
            CondKey::PortNet(Port(80), NetKey::Asn(8)),
            CondKey::PortAppNet(Port(80), server(5), NetKey::Asn(8)),
        ] {
            assert!(compiled.get(&miss).is_none(), "{miss:?}");
        }
    }

    #[test]
    fn identical_and_prefix_lists_share_arena_storage() {
        let compiled = CompiledRules::from_rules(&rules_fixture());
        // 7 rows, 13 rule entries total — but only the 3-entry list, the
        // 1-entry list and the 2-entry Eq. 7 list are stored: the
        // duplicate and the prefix alias the 3-entry slice, the Eq. 7 ASN
        // list the 1-entry slice, the Eq. 5 list the Eq. 7 one.
        assert_eq!(compiled.len(), 13);
        assert_eq!(compiled.arena_len(), 6);
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
