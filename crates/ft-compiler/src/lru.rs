//! Generic sharded LRU with single-flight computation.
//!
//! Both layers of ft-core's `ObjectStore` (compiled objects and linked
//! programs), through which every evaluation context compiles and
//! links, and the standalone [`crate::ObjectCache`] are thin wrappers
//! over this one structure. Three properties matter:
//!
//! * **Bounded residency.** Under [`CacheCapacity::Entries`] each shard
//!   keeps a recency index (`BTreeMap<tick, key>`) next to its hash
//!   map and evicts the least recently used entry whenever the budget
//!   is exceeded, so long campaigns stay O(working set), not
//!   O(history). [`CacheCapacity::Unbounded`] never evicts and keeps
//!   no recency index at all.
//! * **Single-flight.** Each entry is one `OnceLock`, installed under a
//!   single acquisition of its shard lock. The first lookup computes
//!   the value inside the cell's initializer; concurrent lookups of the
//!   same key block on the cell instead of racing duplicate
//!   computations. This makes the counter ledger exact:
//!   `computes == misses` and `hits + misses == lookups`, even from
//!   rayon worker threads. A compute that panics leaves its cell empty,
//!   and the next lookup of that key computes it again.
//! * **Result invariance.** Every cached value is a pure function of
//!   its key (compilation and linking are deterministic), so an
//!   eviction can only force a bit-identical recomputation. Capacity
//!   changes move cost counters, never results — the property the
//!   `cache_equivalence` suite locks against the golden digests.

use parking_lot::Mutex;
use std::collections::hash_map::{self, DefaultHasher};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of independent lock stripes. A small power of two well above
/// the worker-thread count keeps the collision probability (two busy
/// keys sharing a lock) low without bloating the struct.
pub const SHARDS: usize = 16;

/// How many entries a cache may keep resident.
///
/// An entry budget is global to the cache and split evenly across its
/// [`SHARDS`] stripes; every stripe always retains at least its most
/// recently inserted entry, so the worst-case residency of an
/// `Entries(n)` cache is `max(n, SHARDS)` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCapacity {
    /// Never evict (the historical behaviour).
    Unbounded,
    /// Keep at most this many entries across all shards.
    Entries(usize),
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

/// A single-flight cell: filled once by whichever lookup initializes
/// it first. Lookups keep their own `Arc` to it, which makes evicting
/// an in-flight entry safe.
type Cell<V> = Arc<OnceLock<Arc<V>>>;

struct Entry<V> {
    cell: Cell<V>,
    /// Recency tick; stays 0 when the cache keeps no recency index.
    tick: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Recency index under an entry budget: tick -> key, oldest first.
    order: BTreeMap<u64, K>,
    tick: u64,
}

/// A lock-striped, capacity-bounded, single-flight memoization cache.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    capacity: CacheCapacity,
    /// Entries each shard may keep; `None` when unbounded.
    per_shard: Option<usize>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    computes: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> ShardedLru<K, V> {
    /// An empty cache with the given capacity.
    pub fn new(capacity: CacheCapacity) -> Self {
        let shard = || Shard {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
        };
        ShardedLru {
            shards: (0..SHARDS).map(|_| Mutex::new(shard())).collect(),
            capacity,
            per_shard: match capacity {
                CacheCapacity::Unbounded => None,
                CacheCapacity::Entries(n) => Some((n / SHARDS).max(1)),
            },
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            computes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
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

    /// Looks up `key`, running `compute` under single-flight on a miss.
    /// Returns the shared value and whether the lookup was a hit.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (Arc<V>, bool) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let (cell, hit) = self.cell(key);
        // Blocks while another lookup is initializing the cell. A hit
        // on a cell whose creator panicked initializes it here.
        let value = cell.get_or_init(|| {
            self.computes.fetch_add(1, Ordering::Relaxed);
            Arc::new(compute())
        });
        (value.clone(), hit)
    }

    /// Finds `key`'s cell, or installs an empty one, under one
    /// acquisition of its shard lock. Returns the cell and whether it
    /// was already there.
    fn cell(&self, key: K) -> (Cell<V>, bool) {
        let mut guard = self.shards[self.route(&key)].lock();
        let shard = &mut *guard;
        // Only an entry budget keeps recency: a tick per lookup.
        let tick = self.per_shard.map(|_| {
            shard.tick += 1;
            shard.tick
        });
        match shard.map.entry(key) {
            hash_map::Entry::Occupied(mut e) => {
                // Hit (possibly on an in-flight entry): bump recency.
                let entry = e.get_mut();
                if let Some(tick) = tick {
                    let key = shard.order.remove(&entry.tick).expect("order tracks map");
                    shard.order.insert(tick, key);
                    entry.tick = tick;
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                (entry.cell.clone(), true)
            }
            hash_map::Entry::Vacant(e) => {
                if let Some(tick) = tick {
                    shard.order.insert(tick, e.key().clone());
                }
                let entry = Entry {
                    cell: Cell::default(),
                    tick: tick.unwrap_or(0),
                };
                let cell = e.insert(entry).cell.clone();
                self.misses.fetch_add(1, Ordering::Relaxed);
                // The shard was within budget before this insert, so
                // one eviction restores it. The newest entry holds the
                // maximal tick and the budget is at least 1, so it is
                // never the one evicted.
                if self.per_shard.is_some_and(|limit| shard.map.len() > limit) {
                    let (_, oldest) = shard.order.pop_first().expect("order tracks map");
                    shard.map.remove(&oldest).expect("map tracks order");
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                (cell, false)
            }
        }
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
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Obj(u64);

    fn value_of(k: u64) -> Obj {
        Obj(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn shard_lens<K, V>(lru: &ShardedLru<K, V>) -> Vec<usize> {
        lru.shards.iter().map(|s| s.lock().map.len()).collect()
    }

    #[test]
    fn unbounded_never_evicts() {
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Unbounded);
        for k in 0..200 {
            lru.get_or_compute(k, || value_of(k));
        }
        assert_eq!(lru.resident(), 200);
        let s = lru.stats();
        assert_eq!(s.evictions, 0);
        assert_eq!(s.misses, 200);
        assert_eq!(s.computes, 200);
        assert_eq!(s.lookups, 200);
        assert!(
            lru.shards.iter().all(|s| s.lock().order.is_empty()),
            "an unbounded cache keeps no recency index"
        );
    }

    #[test]
    fn entry_budget_bounds_residency() {
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Entries(32));
        for k in 0..500 {
            lru.get_or_compute(k, || value_of(k));
            let resident = lru.resident();
            assert!(resident <= 32, "resident {resident} over budget after {k}");
        }
        let resident = lru.resident();
        assert_eq!(lru.stats().evictions as usize, 500 - resident);
    }

    #[test]
    fn capacity_one_keeps_one_per_shard() {
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Entries(1));
        for k in 0..100 {
            lru.get_or_compute(k, || value_of(k));
        }
        assert!(lru.resident() <= SHARDS);
        assert!(shard_lens(&lru).iter().all(|&l| l <= 1));
    }

    #[test]
    fn entries_spread_across_shards() {
        // Many `(module id, CV digest)`-shaped keys must not all land
        // in one stripe.
        let lru: ShardedLru<(usize, u64), Obj> = ShardedLru::new(CacheCapacity::Unbounded);
        for id in 0..64u64 {
            let digest = value_of(id).0;
            lru.get_or_compute((id as usize, digest), || value_of(digest));
        }
        let occupied = shard_lens(&lru).iter().filter(|&&l| l > 0).count();
        assert!(
            occupied > SHARDS / 2,
            "only {occupied}/{SHARDS} shards used"
        );
        assert_eq!(lru.resident(), 64);
    }

    #[test]
    fn eviction_is_lru_ordered() {
        // Three keys in one shard under a two-per-shard budget: the
        // entry evicted is the least recently *used*, not inserted.
        let lru: ShardedLru<u64, Obj> = ShardedLru::new(CacheCapacity::Entries(2 * SHARDS));
        let shard = lru.route(&0);
        let mut same = (1..).filter(|k| lru.route(k) == shard);
        let (a, b, c) = (0, same.next().unwrap(), same.next().unwrap());
        let lookup = |k: u64| lru.get_or_compute(k, || value_of(k)).1;
        assert!(!lookup(a) && !lookup(b));
        assert!(lookup(a), "a is resident");
        assert!(!lookup(c));
        assert_eq!(lru.stats().evictions, 1, "c displaced exactly one entry");
        assert!(lookup(a), "a was touched after b, so b went");
        assert!(!lookup(b), "b was the least recently used");
        // b's return displaced the least recently used again: c.
        assert!(lookup(a));
        assert!(!lookup(c));
        assert_eq!(lru.stats().evictions, 3);
    }

    #[test]
    fn a_panicking_compute_leaves_its_key_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for capacity in [CacheCapacity::Unbounded, CacheCapacity::Entries(1)] {
            let lru: ShardedLru<u64, Obj> = ShardedLru::new(capacity);
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                lru.get_or_compute(9, || panic!("compute failed"))
            }));
            assert!(panicked.is_err());
            let (v, _) = lru.get_or_compute(9, || value_of(9));
            assert_eq!(*v, value_of(9), "{capacity:?}: the next lookup computes");
            let (again, hit) = lru.get_or_compute(9, || unreachable!("9 is resident"));
            assert!(
                hit && Arc::ptr_eq(&v, &again),
                "{capacity:?}: a later one hits"
            );
            let s = lru.stats();
            assert_eq!(
                (s.lookups, s.hits, s.misses, s.computes),
                (3, 2, 1, 2),
                "{capacity:?}"
            );
        }
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
}
