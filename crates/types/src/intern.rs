//! String interning for banner values.
//!
//! Table 1's features range in dimensionality from 10 (CWMP header) to 50.8M
//! (HTTP body hash). GPS hashes and joins on feature *values* constantly —
//! interning maps each distinct banner string to a dense `u32` symbol so the
//! model's keys are fixed-width and the co-occurrence join never touches
//! string data.
//!
//! The interner is sharded and internally synchronized ([`parking_lot`]
//! `RwLock` per shard), so `intern` takes `&self` and works through an
//! `Arc` shared across threads. Two callers intern: universe generation,
//! single-threaded and once per distinct value (so symbol ids follow
//! first-intern order and are reproducible), and `Scanner::new`, which adds
//! one sentinel string. Everything downstream only resolves symbols.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

/// An interned string symbol. `Sym(u32::MAX)` is reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Sym(pub u32);

impl Sym {
    /// Sentinel for "no value".
    pub const NONE: Sym = Sym(u32::MAX);
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

const SHARD_BITS: usize = 4;
const NUM_SHARDS: usize = 1 << SHARD_BITS;

#[derive(Default)]
struct Shard {
    map: HashMap<Arc<str>, u32>,
}

/// A sharded, thread-safe string interner.
///
/// Symbols are globally unique across shards: the low `SHARD_BITS` bits of
/// a symbol identify its shard, the remaining bits index into that shard's
/// vector, so resolution is lock-free after an `RwLock` read acquire.
pub struct Interner {
    shards: [RwLock<Shard>; NUM_SHARDS],
    strings: [RwLock<Vec<Arc<str>>>; NUM_SHARDS],
}

impl Interner {
    pub fn new() -> Self {
        Interner {
            shards: std::array::from_fn(|_| RwLock::new(Shard::default())),
            strings: std::array::from_fn(|_| RwLock::new(Vec::new())),
        }
    }

    fn shard_of(s: &str) -> usize {
        // FNV-1a over the bytes; cheap and stable.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in s.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h as usize) & (NUM_SHARDS - 1)
    }

    /// Intern a string, returning its symbol. Idempotent.
    pub fn intern(&self, s: &str) -> Sym {
        let shard_idx = Self::shard_of(s);
        // Fast path: already interned.
        {
            let shard = self.shards[shard_idx].read();
            if let Some(&id) = shard.map.get(s) {
                return Sym(id);
            }
        }
        let mut shard = self.shards[shard_idx].write();
        if let Some(&id) = shard.map.get(s) {
            return Sym(id);
        }
        let arc: Arc<str> = Arc::from(s);
        let mut strings = self.strings[shard_idx].write();
        let local_idx = strings.len() as u32;
        let id = (local_idx << SHARD_BITS) | shard_idx as u32;
        assert!(id != u32::MAX, "interner exhausted");
        strings.push(arc.clone());
        shard.map.insert(arc, id);
        Sym(id)
    }

    /// Resolve a symbol back to its string. Panics on a foreign/corrupt
    /// symbol (symbols are only meaningful with the interner that made them).
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        let shard_idx = (sym.0 as usize) & (NUM_SHARDS - 1);
        let local_idx = (sym.0 >> SHARD_BITS) as usize;
        self.strings[shard_idx].read()[local_idx].clone()
    }

    /// Look up without interning.
    pub fn get(&self, s: &str) -> Option<Sym> {
        let shard_idx = Self::shard_of(s);
        self.shards[shard_idx].read().map.get(s).copied().map(Sym)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.iter().map(|v| v.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

/// A single-threaded interner mapping arbitrary hashable values to dense
/// sequential `u32` ids, in first-insertion order.
///
/// Where [`Interner`] serves banner strings, this one serves
/// *compilation*: turning a set of keys or payload lists into indices of a
/// struct-of-arrays layout. Ids are contiguous from 0, so `items` doubles
/// as the id → value table.
#[derive(Debug, Default, Clone)]
pub struct DenseInterner<T> {
    ids: HashMap<T, u32>,
    items: Vec<T>,
}

impl<T: Eq + std::hash::Hash + Clone> DenseInterner<T> {
    pub fn new() -> Self {
        DenseInterner {
            ids: HashMap::new(),
            items: Vec::new(),
        }
    }

    /// Intern a value, returning its dense id. Idempotent.
    pub fn intern(&mut self, value: &T) -> u32 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = u32::try_from(self.items.len()).expect("dense interner exhausted");
        self.items.push(value.clone());
        self.ids.insert(value.clone(), id);
        id
    }

    /// Look up without interning.
    pub fn get(&self, value: &T) -> Option<u32> {
        self.ids.get(value).copied()
    }

    /// Resolve an id back to its value.
    pub fn resolve(&self, id: u32) -> &T {
        &self.items[id as usize]
    }

    /// All interned values, indexed by id.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interner({} strings)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("nginx/1.18.0");
        let b = i.intern("nginx/1.18.0");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        let i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let i = Interner::new();
        let strings = ["", "x", "SSH-2.0-OpenSSH_7.4", "日本語バナー", "a\nb\0c"];
        let syms: Vec<Sym> = strings.iter().map(|s| i.intern(s)).collect();
        for (s, sym) in strings.iter().zip(&syms) {
            assert_eq!(&*i.resolve(*sym), *s);
        }
    }

    #[test]
    fn get_does_not_intern() {
        let i = Interner::new();
        assert_eq!(i.get("missing"), None);
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn dense_interner_assigns_sequential_ids() {
        let mut d: DenseInterner<Vec<u16>> = DenseInterner::new();
        let a = d.intern(&vec![80, 443]);
        let b = d.intern(&vec![22]);
        let a2 = d.intern(&vec![80, 443]);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a2, a);
        assert_eq!(d.len(), 2);
        assert_eq!(d.resolve(b), &vec![22]);
        assert_eq!(d.get(&vec![9999]), None);
        assert_eq!(d.items().len(), 2);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let i = std::sync::Arc::new(Interner::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let i = i.clone();
            handles.push(std::thread::spawn(move || {
                let mut syms = Vec::new();
                for k in 0..200 {
                    // Every thread interns the same 200 strings.
                    syms.push(i.intern(&format!("banner-{k}")));
                }
                let _ = t;
                syms
            }));
        }
        let results: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "all threads must agree on symbols");
        }
        assert_eq!(i.len(), 200);
    }
}
