//! The keyed evaluate cache: (store name, load generation, mapping
//! fingerprint) → period breakdown + pristine evaluator snapshot.
//!
//! Dashboards re-`evaluate` the same few mappings against the same instances
//! over and over; each of those evaluations rebuilds an
//! [`IncrementalEvaluator`](mf_core::IncrementalEvaluator) from scratch —
//! `O(n log m)` demand/load work that produces a bit-identical answer every
//! time. This cache keys a finished evaluation by the instance's store
//! name, its **load generation** (bumped on every `load`, so a reload
//! invalidates all cached entries for the name automatically) and the
//! mapping's content [`fingerprint`](mf_core::Mapping::fingerprint), and
//! stores the full answer: period, critical machine, per-machine loads,
//! **and** the pristine post-build [`EvaluatorSnapshot`] — so a cache hit
//! still installs session-resident what-if state, exactly as a fresh build
//! would, without running the evaluator.
//!
//! The name is part of the key because generations are only unique *per
//! engine counter*: a shared multi-worker journal replayed at a different
//! `--workers` count can legitimately pin two different instances at the
//! same generation inside one engine, and `(generation, fingerprint)` alone
//! would let one instance's evaluation answer for the other.
//!
//! Entries are evicted least-recently-used past [`EVALUATE_CACHE_CAP`], and
//! hits/misses/evictions are counted for `stats` (v2) and `status-export`.
//!
//! A request that panics while holding the cache lock does not take the
//! cache down with it: the next caller recovers the lock and empties the
//! map (the panic may have left it half-updated), so every later evaluate
//! misses once and rebuilds. The counters keep counting.

use mf_core::EvaluatorSnapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Most cached evaluations kept per engine; least-recently-used entries are
/// dropped past this (an entry holds the instance-sized snapshot vectors, so
/// the cap bounds memory at roughly `cap × instance bytes`).
pub const EVALUATE_CACHE_CAP: usize = 128;

/// One cached evaluation: the full `evaluate` answer plus the pristine
/// snapshot a hit re-installs as session-resident what-if state.
#[derive(Debug, Clone)]
pub struct CachedEvaluation {
    /// System period (ms), bit-identical to the fresh evaluation.
    pub period: f64,
    /// Critical machine index.
    pub critical: usize,
    /// Per-machine loads (ms), indexed by machine.
    pub loads: Vec<f64>,
    /// The evaluator state exactly as a fresh build commits it.
    pub snapshot: EvaluatorSnapshot,
}

struct CacheEntry {
    value: CachedEvaluation,
    /// Recency stamp for the LRU cap.
    last_used: u64,
}

/// Cache key: store name, load generation, mapping fingerprint.
type CacheKey = (String, u64, u64);

#[derive(Default)]
struct CacheInner {
    entries: HashMap<CacheKey, CacheEntry>,
    clock: u64,
}

/// A keyed cache of finished evaluations, shared by all sessions of one
/// engine. Interior mutability (one mutex around the map, atomics for the
/// counters) keeps the engine's `&self` dispatch signature.
pub struct EvaluateCache {
    inner: Mutex<CacheInner>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for EvaluateCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EvaluateCache {
    /// An empty cache with the default [`EVALUATE_CACHE_CAP`].
    pub fn new() -> Self {
        Self::with_cap(EVALUATE_CACHE_CAP)
    }

    /// An empty cache holding at most `cap` entries (`0` disables caching).
    pub fn with_cap(cap: usize) -> Self {
        EvaluateCache {
            inner: Mutex::new(CacheInner::default()),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Locks the map. A lock poisoned by a panicking holder is recovered
    /// with every entry dropped — the panic may have interrupted an insert
    /// or an eviction — so the cache only ever forgets and never serves a
    /// torn entry.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|poison| {
            self.inner.clear_poison();
            let mut inner = poison.into_inner();
            inner.entries.clear();
            inner
        })
    }

    /// Test hook: panics with the map lock held, poisoning it.
    #[cfg(test)]
    pub(crate) fn panic_with_lock_held(&self) {
        let _guard = self.lock();
        panic!("injected panic with the evaluate cache locked");
    }

    /// Looks up a finished evaluation; counts a hit or a miss either way.
    pub fn lookup(
        &self,
        name: &str,
        generation: u64,
        fingerprint: u64,
    ) -> Option<CachedEvaluation> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner
            .entries
            .get_mut(&(name.to_string(), generation, fingerprint))
        {
            Some(entry) => {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a finished evaluation, evicting the least-recently-used entry
    /// past the cap.
    pub fn insert(&self, name: &str, generation: u64, fingerprint: u64, value: CachedEvaluation) {
        if self.cap == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let key = (name.to_string(), generation, fingerprint);
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.cap {
            if let Some(coldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
            {
                inner.entries.remove(&coldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.entries.insert(
            key,
            CacheEntry {
                value,
                last_used: clock,
            },
        );
    }

    /// Drops every entry of one store name. A name's generation never
    /// repeats (the store counter only climbs and replays reserve the
    /// journal mark), so stale entries could never hit again anyway —
    /// purging on `load`/`unload` just frees their memory eagerly instead
    /// of waiting for the LRU cap to age them out.
    pub fn purge(&self, name: &str) {
        let mut inner = self.lock();
        inner.entries.retain(|key, _| key.0 != name);
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when no evaluation is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by the LRU cap.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_core::prelude::*;
    use mf_core::textio;
    use mf_sim::{GeneratorConfig, InstanceGenerator};

    fn snapshot_for(seed: u64) -> (f64, EvaluatorSnapshot) {
        let instance = InstanceGenerator::new(GeneratorConfig::paper_standard(6, 3, 2))
            .generate(seed)
            .unwrap();
        let text = textio::instance_to_text(&instance);
        let instance = textio::instance_from_text(&text).unwrap();
        let mapping = mf_heuristics::paper_heuristic("H4w", 1)
            .unwrap()
            .map(&instance)
            .unwrap();
        let evaluator = IncrementalEvaluator::new(&instance, &mapping).unwrap();
        (evaluator.period().value(), evaluator.into_snapshot())
    }

    fn cached(period: f64, snapshot: EvaluatorSnapshot) -> CachedEvaluation {
        CachedEvaluation {
            period,
            critical: 0,
            loads: vec![period],
            snapshot,
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses_and_lru_evicts() {
        let cache = EvaluateCache::with_cap(2);
        let (period, snapshot) = snapshot_for(1);
        assert!(cache.lookup("a", 1, 10).is_none());
        cache.insert("a", 1, 10, cached(period, snapshot.clone()));
        cache.insert("a", 1, 11, cached(period, snapshot.clone()));
        let hit = cache.lookup("a", 1, 10).expect("cached");
        assert_eq!(hit.period.to_bits(), period.to_bits());
        // Entry (a,1,11) is now the coldest; a third insert evicts it.
        cache.insert("b", 2, 12, cached(period, snapshot.clone()));
        assert!(
            cache.lookup("a", 1, 11).is_none(),
            "LRU entry must be evicted"
        );
        assert!(cache.lookup("a", 1, 10).is_some());
        assert!(cache.lookup("b", 2, 12).is_some());
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
    }

    /// Two names pinned at the same generation (a multi-worker journal
    /// replayed into fewer engines does exactly this) must keep separate
    /// entries even for the same mapping fingerprint.
    #[test]
    fn same_generation_and_fingerprint_do_not_alias_across_names() {
        let cache = EvaluateCache::new();
        let (period_a, snapshot_a) = snapshot_for(1);
        let (period_b, snapshot_b) = snapshot_for(2);
        assert_ne!(period_a.to_bits(), period_b.to_bits());
        cache.insert("a", 0, 10, cached(period_a, snapshot_a));
        cache.insert("b", 0, 10, cached(period_b, snapshot_b));
        assert_eq!(cache.len(), 2, "the keys must not collide");
        let hit_a = cache.lookup("a", 0, 10).expect("a cached");
        let hit_b = cache.lookup("b", 0, 10).expect("b cached");
        assert_eq!(hit_a.period.to_bits(), period_a.to_bits());
        assert_eq!(hit_b.period.to_bits(), period_b.to_bits());
    }

    #[test]
    fn purge_drops_only_the_named_instances_entries() {
        let cache = EvaluateCache::new();
        let (period, snapshot) = snapshot_for(1);
        cache.insert("a", 1, 10, cached(period, snapshot.clone()));
        cache.insert("a", 3, 11, cached(period, snapshot.clone()));
        cache.insert("b", 2, 10, cached(period, snapshot));
        cache.purge("a");
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("b", 2, 10).is_some());
        assert!(cache.lookup("a", 1, 10).is_none());
    }

    /// A panic with the lock held poisons the mutex; the next caller
    /// recovers it with the map emptied, and every operation works again.
    #[test]
    fn a_panic_with_the_lock_held_empties_the_cache_and_recovers() {
        let cache = EvaluateCache::new();
        let (period, snapshot) = snapshot_for(1);
        cache.insert("a", 1, 10, cached(period, snapshot.clone()));
        assert!(cache.lookup("a", 1, 10).is_some());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.panic_with_lock_held()
        }));
        assert!(panicked.is_err(), "the injected panic must unwind");
        assert!(cache.inner.is_poisoned());
        assert!(cache.lookup("a", 1, 10).is_none(), "recovery drops entries");
        assert!(!cache.inner.is_poisoned(), "recovery clears the poison");
        cache.insert("a", 1, 10, cached(period, snapshot.clone()));
        cache.insert("b", 2, 10, cached(period, snapshot));
        assert!(cache.lookup("a", 1, 10).is_some());
        cache.purge("a");
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn zero_cap_disables_caching() {
        let cache = EvaluateCache::with_cap(0);
        let (period, snapshot) = snapshot_for(1);
        cache.insert("a", 1, 10, cached(period, snapshot));
        assert!(cache.is_empty());
        assert!(cache.lookup("a", 1, 10).is_none());
        assert_eq!(cache.evictions(), 0);
    }
}
