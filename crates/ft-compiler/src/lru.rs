//! Generic sharded LRU with single-flight computation.
//!
//! Both layers of ft-core's `ObjectStore` (compiled objects and linked
//! programs), through which every evaluation context compiles and
//! links, and the standalone [`crate::ObjectCache`] are thin wrappers
//! over this one structure. Three properties matter:
//!
//! * **Bounded residency.** Each shard keeps a recency index
//!   (`BTreeMap<tick, key>`) next to its hash map — a doubly-indexed
//!   LRU — and evicts oldest-first whenever a configured
//!   [`CacheCapacity`] (entry count or modeled object bytes) is
//!   exceeded. Long campaigns stay O(working set), not O(history).
//! * **Single-flight.** A miss installs a per-key slot and computes the
//!   value while holding only that slot's lock; concurrent lookups of
//!   the same key block on the slot instead of racing duplicate
//!   computations. This makes the counter ledger exact:
//!   `computes == misses` and `hits + misses == lookups`, even from
//!   rayon worker threads.
//! * **Result invariance.** Every cached value is a pure function of
//!   its key (compilation and linking are deterministic), so an
//!   eviction can only force a bit-identical recomputation. Capacity
//!   changes move cost counters, never results — the property the
//!   `cache_equivalence` suite locks against the golden digests.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independent lock stripes. A small power of two well above
/// the worker-thread count keeps the collision probability (two busy
/// keys sharing a lock) low without bloating the struct.
pub const SHARDS: usize = 16;

/// How much a cache may keep resident.
///
/// Budgets are global to the cache and split evenly across its
/// [`SHARDS`] stripes; every stripe always retains at least its most
/// recently inserted entry, so the worst-case residency of an
/// `Entries(n)` cache is `max(n, SHARDS)` entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheCapacity {
    /// Never evict (the historical behaviour).
    Unbounded,
    /// Keep at most this many entries across all shards.
    Entries(usize),
    /// Keep at most this many modeled object bytes across all shards
    /// (per-value weight from [`CacheWeight`]).
    ModeledBytes(f64),
}

impl CacheCapacity {
    fn per_shard(self) -> ShardBudget {
        match self {
            CacheCapacity::Unbounded => ShardBudget::Unbounded,
            CacheCapacity::Entries(n) => ShardBudget::Entries((n / SHARDS).max(1)),
            CacheCapacity::ModeledBytes(b) => ShardBudget::Bytes((b / SHARDS as f64).max(1.0)),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum ShardBudget {
    Unbounded,
    Entries(usize),
    Bytes(f64),
}

/// Modeled size of a cached value, in bytes, for
/// [`CacheCapacity::ModeledBytes`] budgets.
pub trait CacheWeight {
    /// Modeled resident size in bytes; implementations should return a
    /// positive value.
    fn weight_bytes(&self) -> f64;
}

/// Counter snapshot of a [`ShardedLru`].
///
/// Invariants (enforced by construction, locked by proptests):
/// `hits + misses == lookups` and `computes == misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Total `get_or_compute` calls.
    pub lookups: u64,
    /// Lookups served from a resident (or in-flight) entry.
    pub hits: u64,
    /// Lookups that installed a new entry and computed it.
    pub misses: u64,
    /// Times the compute closure actually ran.
    pub computes: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
}

/// Single-flight slot: the creator holds the lock while computing, so
/// waiters block here instead of duplicating work. Waiters keep their
/// own `Arc` to the slot, which makes evicting an in-flight entry safe.
struct Slot<V> {
    value: Mutex<Option<Arc<V>>>,
}

struct Entry<V> {
    slot: Arc<Slot<V>>,
    tick: u64,
    weight: f64,
}

struct ShardInner<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Recency index: insertion tick -> key, oldest first.
    order: BTreeMap<u64, K>,
    tick: u64,
    weight: f64,
}

impl<K, V> ShardInner<K, V> {
    fn new() -> Self {
        ShardInner {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            weight: 0.0,
        }
    }
}

/// A lock-striped, capacity-bounded, single-flight memoization cache.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<ShardInner<K, V>>>,
    budget: ShardBudget,
    capacity: CacheCapacity,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    computes: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
    peak_resident: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: CacheWeight> ShardedLru<K, V> {
    /// An empty cache with the given capacity.
    pub fn new(capacity: CacheCapacity) -> Self {
        ShardedLru {
            shards: (0..SHARDS).map(|_| Mutex::new(ShardInner::new())).collect(),
            budget: capacity.per_shard(),
            capacity,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            computes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> CacheCapacity {
        self.capacity
    }

    fn route(&self, key: &K) -> usize {
        // `DefaultHasher::new()` uses fixed keys, so routing is
        // deterministic across runs (and irrelevant to results either
        // way — it only spreads lock contention).
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    fn over_budget(&self, inner: &ShardInner<K, V>) -> bool {
        match self.budget {
            ShardBudget::Unbounded => false,
            ShardBudget::Entries(n) => inner.map.len() > n,
            ShardBudget::Bytes(b) => inner.weight > b,
        }
    }

    /// Evicts oldest-first until the shard is within budget, always
    /// retaining the newest entry (which holds the maximal tick and is
    /// therefore never the `order` minimum while `len > 1`).
    fn enforce(&self, inner: &mut ShardInner<K, V>) {
        while self.over_budget(inner) && inner.map.len() > 1 {
            let (&oldest, _) = inner.order.iter().next().expect("order tracks map");
            let key = inner.order.remove(&oldest).expect("key just seen");
            let entry = inner.map.remove(&key).expect("map tracks order");
            inner.weight -= entry.weight;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.resident.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Looks up `key`, running `compute` under single-flight on a miss.
    /// Returns the shared value and whether the lookup was a hit.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (Arc<V>, bool) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[self.route(&key)];

        let slot = {
            let mut inner = shard.lock();
            if let Some(entry) = inner.map.get(&key) {
                // Hit (possibly on an in-flight entry): bump recency
                // and fall through to the slot outside the shard lock.
                let old_tick = entry.tick;
                let slot = entry.slot.clone();
                inner.tick += 1;
                let tick = inner.tick;
                inner.map.get_mut(&key).expect("just found").tick = tick;
                let k = inner.order.remove(&old_tick).expect("order tracks map");
                inner.order.insert(tick, k);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot)
            } else {
                None
            }
        };
        if let Some(slot) = slot {
            // Blocks until the creator fills the slot. The creator
            // never takes this shard's lock while holding the slot
            // lock for a *contended* acquisition, so no deadlock.
            let mut guard = slot.value.lock();
            if let Some(v) = guard.as_ref() {
                return (v.clone(), true);
            }
            // Unreachable unless the creator panicked mid-compute:
            // recompute in place so waiters still converge.
            self.computes.fetch_add(1, Ordering::Relaxed);
            let v = Arc::new(compute());
            *guard = Some(v.clone());
            return (v, true);
        }

        // Miss: install an in-flight slot, then compute while holding
        // only the slot lock so other shards/keys stay unblocked.
        let slot = Arc::new(Slot {
            value: Mutex::new(None),
        });
        // Uncontended by construction — nobody else has this Arc yet.
        let mut slot_guard = slot.value.lock();
        {
            let mut inner = shard.lock();
            if inner.map.contains_key(&key) {
                // Lost a race: another thread installed the key while
                // we were off the shard lock. Retry as a hit path.
                drop(slot_guard);
                drop(inner);
                self.lookups.fetch_sub(1, Ordering::Relaxed);
                return self.get_or_compute(key, compute);
            }
            inner.tick += 1;
            let tick = inner.tick;
            inner.order.insert(tick, key.clone());
            inner.map.insert(
                key.clone(),
                Entry {
                    slot: slot.clone(),
                    tick,
                    weight: 0.0,
                },
            );
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.resident.fetch_add(1, Ordering::Relaxed);
            self.enforce(&mut inner);
            self.peak_resident
                .fetch_max(self.resident.load(Ordering::Relaxed), Ordering::Relaxed);
        }

        self.computes.fetch_add(1, Ordering::Relaxed);
        let v = Arc::new(compute());
        *slot_guard = Some(v.clone());

        // Now the modeled weight is known; charge it and re-enforce a
        // byte budget. Skipped entirely for entry budgets.
        if matches!(self.budget, ShardBudget::Bytes(_)) {
            let w = v.weight_bytes().max(0.0);
            let mut inner = shard.lock();
            if let Some(entry) = inner.map.get_mut(&key) {
                if Arc::ptr_eq(&entry.slot, &slot) {
                    entry.weight = w;
                    inner.weight += w;
                    self.enforce(&mut inner);
                }
            }
        }
        drop(slot_guard);
        (v, false)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LruStats {
        LruStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            computes: self.computes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Current resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// High-water mark of resident entries over the cache's lifetime.
    pub fn peak_resident(&self) -> u64 {
        self.peak_resident.load(Ordering::Relaxed)
    }

    /// Resident entries per shard (diagnostics / spread tests).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().map.len()).collect()
    }

    /// Drops all entries and resets every counter.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut inner = s.lock();
            inner.map.clear();
            inner.order.clear();
            inner.weight = 0.0;
        }
        self.lookups.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.computes.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.resident.store(0, Ordering::Relaxed);
        self.peak_resident.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Obj(u64);
    impl CacheWeight for Obj {
        fn weight_bytes(&self) -> f64 {
            100.0
        }
    }

    fn value_of(k: u64) -> Obj {
        Obj(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    #[test]
    fn unbounded_never_evicts() {
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Unbounded);
        for k in 0..200 {
            lru.get_or_compute(k, || value_of(k));
        }
        assert_eq!(lru.len(), 200);
        let s = lru.stats();
        assert_eq!(s.evictions, 0);
        assert_eq!(s.misses, 200);
        assert_eq!(s.computes, 200);
        assert_eq!(s.lookups, 200);
    }

    #[test]
    fn entry_budget_bounds_residency() {
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Entries(32));
        for k in 0..500 {
            lru.get_or_compute(k, || value_of(k));
        }
        assert!(lru.len() <= 32, "resident {} over budget", lru.len());
        assert!(lru.peak_resident() <= 32);
        let s = lru.stats();
        assert_eq!(s.evictions as usize, 500 - lru.len());
    }

    #[test]
    fn capacity_one_keeps_one_per_shard() {
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Entries(1));
        for k in 0..100 {
            lru.get_or_compute(k, || value_of(k));
        }
        assert!(lru.len() <= SHARDS);
        assert!(lru.shard_lens().iter().all(|&l| l <= 1));
    }

    #[test]
    fn byte_budget_bounds_weight_but_keeps_newest() {
        // 100 bytes per value, 400-byte global budget => 25 bytes per
        // shard: every shard still retains its newest entry.
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::ModeledBytes(400.0));
        for k in 0..100 {
            lru.get_or_compute(k, || value_of(k));
        }
        assert!(lru.len() <= SHARDS);
        assert!(lru.stats().evictions > 0);
    }

    #[test]
    fn eviction_is_lru_ordered() {
        // One shard's worth: use keys that map anywhere but a budget
        // of Entries(SHARDS) giving 1 per shard; touching a key keeps
        // it alive over an untouched sibling in the same shard.
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Entries(2 * SHARDS));
        for k in 0..8 {
            lru.get_or_compute(k, || value_of(k));
        }
        // Touch key 0 so it is the most recent everywhere it lives.
        let (v, hit) = lru.get_or_compute(0, || unreachable!("0 is resident"));
        assert!(hit);
        assert_eq!(*v, value_of(0));
    }

    #[test]
    fn recomputed_after_eviction_is_identical() {
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Entries(1));
        let (a, _) = lru.get_or_compute(7, || value_of(7));
        for k in 100..200 {
            lru.get_or_compute(k, || value_of(k));
        }
        let (b, _) = lru.get_or_compute(7, || value_of(7));
        assert_eq!(*a, *b, "eviction must only force a bit-identical recompute");
    }

    #[test]
    fn single_flight_computes_once_under_contention() {
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Unbounded);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let (v, _) = lru.get_or_compute(42, || value_of(42));
                        assert_eq!(*v, value_of(42));
                    }
                });
            }
        });
        let s = lru.stats();
        assert_eq!(s.lookups, 400);
        assert_eq!(s.hits + s.misses, 400);
        assert_eq!(s.misses, 1, "single-flight: exactly one real compute");
        assert_eq!(s.computes, 1);
    }

    #[test]
    fn ledger_balances_under_eviction_churn() {
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Entries(4));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let lru = &lru;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = (t * 7 + i) % 64;
                        lru.get_or_compute(k, || value_of(k));
                    }
                });
            }
        });
        let s = lru.stats();
        assert_eq!(s.lookups, 1600);
        assert_eq!(s.hits + s.misses, s.lookups);
        assert_eq!(s.computes, s.misses);
    }

    #[test]
    fn clear_resets_counters_and_entries() {
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Entries(8));
        for k in 0..50 {
            lru.get_or_compute(k, || value_of(k));
        }
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.stats(), LruStats::default());
        assert_eq!(lru.peak_resident(), 0);
    }
}
