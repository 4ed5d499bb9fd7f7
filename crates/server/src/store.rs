//! The resident instance store shared by every session.
//!
//! Instances are loaded once (via `mf_core::textio`) and stay resident; a
//! server keeps one store, which every shard and every session sees. Each
//! load gets a process-unique **generation** number so session-scoped
//! caches (resident evaluator snapshots) can tell a reloaded instance from
//! the one they were built against without comparing instance contents.
//!
//! The store is **capped** per server: resident instances are charged their approximate
//! byte footprint, and when a load pushes the total past the cap the
//! least-recently-used instances are evicted (never the one just loaded).
//! Hits, misses and evictions are counted for the `stats` command, so a
//! long-running server's cache behavior is observable.
//!
//! Each stored instance also carries its anytime seed-bound memo
//! ([`RootBound`]): empty at load, filled by the first anytime solve, and
//! gone with the instance, so a reload, an eviction or a journal replay
//! starts from an empty one.

use mf_core::prelude::*;
use mf_exact::solve::RootBound;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Default byte budget of a store, and so of a server: 256 MiB of instance
/// matrices — far more than any paper-scale workload, low enough to bound a
/// churn-heavy server.
pub const DEFAULT_STORE_BYTES: u64 = 256 << 20;

/// One resident instance.
#[derive(Debug)]
pub struct StoredInstance {
    /// Store name.
    pub name: String,
    /// Process-unique load generation (bumped on every `load`, including
    /// same-name replacements).
    pub generation: u64,
    /// The parsed instance.
    pub instance: Instance,
    /// The instance's anytime seed bound, computed by its first anytime
    /// solve (never at load) and not charged to
    /// [`approx_bytes`](Self::approx_bytes).
    pub root_bound: RootBound,
}

impl StoredInstance {
    /// Task count of the instance.
    pub fn tasks(&self) -> usize {
        self.instance.task_count()
    }

    /// Machine count of the instance.
    pub fn machines(&self) -> usize {
        self.instance.machine_count()
    }

    /// Task-type count of the instance.
    pub fn types(&self) -> usize {
        self.instance.application().type_count()
    }

    /// Approximate resident footprint: the `p×m` time matrix, the `n×m`
    /// failure matrix, the per-task vectors, and the application's
    /// structure vectors — successor and topological-order entries plus one
    /// 3-word `Vec` header per task's predecessor list and one word per
    /// in-forest edge — in 8-byte cells. The real heap layout differs by
    /// allocator slop; the cap only needs relative proportionality, and
    /// without the edge term a deep forest (many predecessor lists) would
    /// be undercounted relative to a chain of the same task count, skewing
    /// LRU eviction order. The instance's `n×m` failure-factor table and
    /// its Euler tour are not charged: they scale with the failure matrix
    /// and the per-task vectors the formula already counts, and the golden
    /// transcripts pin the `instance-bytes` it reports.
    pub fn approx_bytes(&self) -> u64 {
        let n = self.tasks() as u64;
        let m = self.machines() as u64;
        let p = self.types() as u64;
        let app = self.instance.application();
        let edges: u64 = app
            .tasks()
            .map(|task| app.predecessors(task.id).len() as u64)
            .sum();
        8 * (p * m + n * m + 4 * n + m) + 8 * (5 * n + edges)
    }
}

/// One store slot: the shared instance plus its recency stamp (updated under
/// the read lock, hence atomic).
#[derive(Debug)]
struct StoreSlot {
    stored: Arc<StoredInstance>,
    last_used: AtomicU64,
}

/// Aggregated cache counters of a store (see [`InstanceStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Approximate bytes currently resident.
    pub bytes: u64,
    /// `get` calls that found their instance.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Instances evicted by the byte cap (explicit `unload`s not included).
    pub evictions: u64,
}

/// A thread-safe, LRU-capped name → instance map. `BTreeMap` keeps `list`
/// responses in deterministic (sorted) order without a per-call sort.
#[derive(Debug)]
pub struct InstanceStore {
    instances: RwLock<BTreeMap<String, StoreSlot>>,
    generations: AtomicU64,
    clock: AtomicU64,
    max_bytes: u64,
    bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for InstanceStore {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_STORE_BYTES)
    }
}

impl InstanceStore {
    /// An empty store with the default byte budget
    /// ([`DEFAULT_STORE_BYTES`]).
    pub fn new() -> Self {
        InstanceStore::default()
    }

    /// An empty store holding at most ~`max_bytes` of instance data (the
    /// most recently loaded instance is always kept, even above the cap).
    pub fn with_capacity(max_bytes: u64) -> Self {
        InstanceStore {
            instances: RwLock::new(BTreeMap::new()),
            generations: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            max_bytes,
            bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    #[inline]
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Inserts (or replaces) an instance under a name; returns the stored
    /// handle. Replacement is deliberate: reloading a name atomically swaps
    /// the instance every later request sees, and the fresh generation
    /// invalidates all session caches built against the old one. If the
    /// insert pushes the store past its byte cap, least-recently-used
    /// instances (never this one) are evicted.
    pub fn insert(&self, name: &str, instance: Instance) -> Arc<StoredInstance> {
        self.insert_tracked(name, instance).0
    }

    /// [`InstanceStore::insert`], additionally reporting the names the byte
    /// cap evicted — a durable server journals each as an `unload`, so a
    /// replayed store converges to the same live set.
    pub fn insert_tracked(
        &self,
        name: &str,
        instance: Instance,
    ) -> (Arc<StoredInstance>, Vec<String>) {
        let generation = self.generations.fetch_add(1, Ordering::Relaxed);
        self.insert_with(name, instance, generation)
    }

    /// Re-inserts a journal-recovered instance under its **original**
    /// generation, so post-restart sessions and the keyed evaluate cache
    /// see exactly the pre-restart identity. The fresh-generation counter
    /// is pulled above the pinned value as a safety net; the replayer
    /// additionally reserves the journal's full high-water mark via
    /// [`InstanceStore::reserve_generations`].
    pub fn insert_pinned(
        &self,
        name: &str,
        instance: Instance,
        generation: u64,
    ) -> (Arc<StoredInstance>, Vec<String>) {
        self.reserve_generations(generation + 1);
        self.insert_with(name, instance, generation)
    }

    /// Raises the fresh-generation counter to at least `floor`. After a
    /// replay this is the journal's generation mark: every generation ever
    /// issued pre-restart is strictly below it, so no post-restart load can
    /// alias a pre-restart `(generation, fingerprint)` cache key — the
    /// collision a rebooting `AtomicU64::new(0)` used to allow.
    pub fn reserve_generations(&self, floor: u64) {
        self.generations.fetch_max(floor, Ordering::Relaxed);
    }

    fn insert_with(
        &self,
        name: &str,
        instance: Instance,
        generation: u64,
    ) -> (Arc<StoredInstance>, Vec<String>) {
        let stored = Arc::new(StoredInstance {
            name: name.to_string(),
            generation,
            instance,
            root_bound: RootBound::new(),
        });
        let added = stored.approx_bytes();
        let mut evicted = Vec::new();
        let mut map = self.instances.write().expect("store lock poisoned");
        if let Some(previous) = map.insert(
            name.to_string(),
            StoreSlot {
                stored: Arc::clone(&stored),
                last_used: AtomicU64::new(self.tick()),
            },
        ) {
            self.bytes
                .fetch_sub(previous.stored.approx_bytes(), Ordering::Relaxed);
        }
        let mut total = self.bytes.fetch_add(added, Ordering::Relaxed) + added;
        // Evict coldest-first until back under the cap; the entry just
        // inserted is exempt so a single oversized instance still loads.
        while total > self.max_bytes && map.len() > 1 {
            let Some(coldest) = map
                .iter()
                .filter(|(key, _)| key.as_str() != name)
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            let slot = map.remove(&coldest).expect("key just observed");
            let freed = slot.stored.approx_bytes();
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            total -= freed;
            evicted.push(coldest);
        }
        (stored, evicted)
    }

    /// The instance under a name, if loaded (refreshes its recency and
    /// counts the hit/miss).
    pub fn get(&self, name: &str) -> Option<Arc<StoredInstance>> {
        let map = self.instances.read().expect("store lock poisoned");
        match map.get(name) {
            Some(slot) => {
                slot.last_used.store(self.tick(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.stored))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Removes an instance; `true` if it was present.
    pub fn remove(&self, name: &str) -> bool {
        let mut map = self.instances.write().expect("store lock poisoned");
        match map.remove(name) {
            Some(slot) => {
                self.bytes
                    .fetch_sub(slot.stored.approx_bytes(), Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Number of resident instances.
    pub fn len(&self) -> usize {
        self.instances.read().expect("store lock poisoned").len()
    }

    /// `true` when no instance is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All resident instances, sorted by name.
    pub fn snapshot(&self) -> Vec<Arc<StoredInstance>> {
        self.instances
            .read()
            .expect("store lock poisoned")
            .values()
            .map(|slot| Arc::clone(&slot.stored))
            .collect()
    }

    /// The cache counters (bytes resident, hits, misses, evictions).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            bytes: self.bytes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_core::textio;

    fn tiny_instance() -> Instance {
        textio::instance_from_text(
            "tasks 1\nmachines 1\ntypes 1\ntask 0 0\ntime 0 0 10\nfailure 0 0 0.0\n",
        )
        .unwrap()
    }

    #[test]
    fn insert_get_remove_and_generations() {
        let store = InstanceStore::new();
        assert!(store.is_empty());
        let first = store.insert("a", tiny_instance());
        let second = store.insert("b", tiny_instance());
        assert_eq!(store.len(), 2);
        assert_ne!(first.generation, second.generation);
        assert_eq!(store.get("a").unwrap().generation, first.generation);
        // Same-name replacement bumps the generation.
        let replaced = store.insert("a", tiny_instance());
        assert_ne!(replaced.generation, first.generation);
        assert_eq!(store.get("a").unwrap().generation, replaced.generation);
        // Snapshot is name-sorted.
        let names: Vec<_> = store.snapshot().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(store.remove("a"));
        assert!(!store.remove("a"));
        assert!(store.get("a").is_none());
        assert_eq!(store.len(), 1);
    }

    /// A load leaves the seed-bound memo empty, and a reload under the same
    /// name starts a new one: the old instance's bound never leaks into it.
    #[test]
    fn each_load_starts_an_empty_root_bound_memo() {
        let store = InstanceStore::new();
        let first = store.insert("a", tiny_instance());
        assert_eq!(first.root_bound.get(), None, "load computes no bound");
        let bound = first.root_bound.get_or_compute(&first.instance).unwrap();
        assert_eq!(store.get("a").unwrap().root_bound.get(), Some(bound));
        let reloaded = store.insert("a", tiny_instance());
        assert_eq!(reloaded.root_bound.get(), None);
        assert_eq!(store.get("a").unwrap().root_bound.get(), None);
        assert_eq!(first.root_bound.get(), Some(bound));
    }

    #[test]
    fn bytes_track_inserts_replacements_and_removals() {
        let store = InstanceStore::new();
        assert_eq!(store.stats().bytes, 0);
        let a = store.insert("a", tiny_instance());
        assert_eq!(store.stats().bytes, a.approx_bytes());
        store.insert("b", tiny_instance());
        assert_eq!(store.stats().bytes, 2 * a.approx_bytes());
        // Replacement does not double-charge.
        store.insert("a", tiny_instance());
        assert_eq!(store.stats().bytes, 2 * a.approx_bytes());
        store.remove("a");
        store.remove("b");
        assert_eq!(store.stats().bytes, 0);
    }

    #[test]
    fn the_byte_cap_evicts_least_recently_used_first() {
        let unit = {
            let probe = InstanceStore::new();
            probe.insert("probe", tiny_instance()).approx_bytes()
        };
        // Room for two tiny instances, not three.
        let store = InstanceStore::with_capacity(2 * unit);
        store.insert("a", tiny_instance());
        store.insert("b", tiny_instance());
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 0);
        // Touch `a` so `b` is the coldest, then overflow.
        assert!(store.get("a").is_some());
        store.insert("c", tiny_instance());
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 1);
        assert!(store.get("b").is_none(), "the cold entry must be evicted");
        assert!(store.get("a").is_some());
        assert!(store.get("c").is_some());
        // A cap smaller than one instance still keeps the newest load.
        let tight = InstanceStore::with_capacity(1);
        tight.insert("only", tiny_instance());
        assert_eq!(tight.len(), 1);
        tight.insert("next", tiny_instance());
        assert_eq!(tight.len(), 1);
        assert!(tight.get("next").is_some());
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let store = InstanceStore::new();
        store.insert("a", tiny_instance());
        assert!(store.get("a").is_some());
        assert!(store.get("a").is_some());
        assert!(store.get("ghost").is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    /// `n` tasks on 1 machine / 1 type, either chained (`n-1` in-forest
    /// edges) or fully independent (0 edges).
    fn structured_instance(n: usize, chained: bool) -> Instance {
        let mut text = format!("tasks {n}\nmachines 1\ntypes 1\n");
        for i in 0..n {
            if chained && i + 1 < n {
                text.push_str(&format!("task {i} 0 successor {}\n", i + 1));
            } else {
                text.push_str(&format!("task {i} 0\n"));
            }
        }
        text.push_str("time 0 0 10\n");
        for i in 0..n {
            text.push_str(&format!("failure {i} 0 0.0\n"));
        }
        textio::instance_from_text(&text).unwrap()
    }

    /// The footprint estimate must charge the application's structure
    /// vectors: a chain of `n` tasks carries `n-1` predecessor edges an
    /// edge-free forest of the same shape doesn't, and the estimate must
    /// grow by exactly one 8-byte cell per edge — otherwise LRU eviction
    /// order is skewed against structure-light instances.
    #[test]
    fn approx_bytes_charges_structure_edges_chain_vs_forest() {
        let n = 24;
        let store = InstanceStore::new();
        let chain = store.insert("chain", structured_instance(n, true));
        let forest = store.insert("forest", structured_instance(n, false));
        assert_eq!(
            chain.approx_bytes() - forest.approx_bytes(),
            8 * (n as u64 - 1),
            "one 8-byte cell per in-forest edge"
        );
        // The matrices alone (the pre-fix formula) undercount both.
        let matrices_only = 8 * ((1 + n as u64) + 4 * n as u64 + 1);
        assert!(forest.approx_bytes() > matrices_only);
    }

    /// The restart-generation bugfix: a store rebuilt from a journal
    /// (pinned generations + reserved high-water mark) never re-issues a
    /// generation, even for generations whose instances were unloaded
    /// before the crash.
    #[test]
    fn a_replayed_store_never_reissues_a_generation() {
        let store = InstanceStore::new();
        let mut issued = Vec::new();
        for name in ["a", "b", "c"] {
            issued.push(store.insert(name, tiny_instance()).generation);
        }
        assert_eq!(issued, vec![0, 1, 2]);
        store.remove("c"); // generation 2 is dead but was issued

        // Replay in arbitrary order with the original generations pinned,
        // then reserve the journal's mark (one above the highest issued).
        let replayed = InstanceStore::new();
        replayed.insert_pinned("b", tiny_instance(), 1);
        replayed.insert_pinned("a", tiny_instance(), 0);
        replayed.reserve_generations(3);
        assert_eq!(replayed.get("a").unwrap().generation, 0);
        assert_eq!(replayed.get("b").unwrap().generation, 1);
        let fresh = replayed.insert("d", tiny_instance());
        assert_eq!(
            fresh.generation, 3,
            "a fresh load must start above the mark (2 was issued pre-restart)"
        );
        let replaced = replayed.insert("a", tiny_instance());
        assert_eq!(replaced.generation, 4, "replacements keep climbing");
        // Even without an explicit reserve, pinning alone keeps the counter
        // above every pinned generation.
        let pinned_only = InstanceStore::new();
        pinned_only.insert_pinned("x", tiny_instance(), 7);
        assert_eq!(pinned_only.insert("y", tiny_instance()).generation, 8);
    }

    /// Racing loaders churning past the byte cap: counters stay consistent
    /// (hits + misses = gets, bytes match the resident set and respect the
    /// cap once the dust settles) and an insert never evicts its own —
    /// newest — entry.
    #[test]
    fn concurrent_load_churn_keeps_counters_consistent() {
        let unit = {
            let probe = InstanceStore::new();
            probe.insert("probe", tiny_instance()).approx_bytes()
        };
        let store = InstanceStore::with_capacity(3 * unit);
        let threads = 4;
        let inserts_per_thread = 32;
        let (gets, evicted_total) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let store = &store;
                    scope.spawn(move || {
                        let mut gets = 0u64;
                        let mut evicted = 0u64;
                        for i in 0..inserts_per_thread {
                            let name = format!("t{t}-i{i}");
                            let (stored, gone) = store.insert_tracked(&name, tiny_instance());
                            assert_eq!(stored.name, name);
                            assert!(
                                !gone.contains(&name),
                                "an insert must never evict its own (newest) entry"
                            );
                            evicted += gone.len() as u64;
                            // Lookups race the other threads' evictions; any
                            // outcome is fine, the accounting must hold.
                            store.get(&name);
                            store.get(&format!("t{}-i{i}", (t + 1) % threads));
                            gets += 2;
                        }
                        (gets, evicted)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("churn thread panicked"))
                .fold((0u64, 0u64), |(g, e), (dg, de)| (g + dg, e + de))
        });
        let stats = store.stats();
        assert_eq!(stats.hits + stats.misses, gets);
        assert_eq!(stats.evictions, evicted_total);
        assert_eq!(
            store.len() as u64 + evicted_total,
            (threads * inserts_per_thread) as u64,
            "every distinct name is either resident or was evicted exactly once"
        );
        assert!(
            stats.bytes <= 3 * unit,
            "bytes ({}) must respect the cap ({}) once every load returned",
            stats.bytes,
            3 * unit
        );
        let resident: u64 = store
            .snapshot()
            .iter()
            .map(|stored| stored.approx_bytes())
            .sum();
        assert_eq!(
            stats.bytes, resident,
            "byte counter matches the resident set"
        );
    }
}
