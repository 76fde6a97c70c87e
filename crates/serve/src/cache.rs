//! The sharded response cache: rendered JSON bodies keyed by
//! `(entity, request fingerprint, KB fingerprint)`.
//!
//! Responses are rendered against one KB *generation* (the fingerprint in
//! the key), so entries never go stale in place — ingestion rotates the
//! fingerprint and [`ResponseCache::purge_stale`] drops the entries of
//! dead generations eagerly instead of waiting for LRU pressure to push
//! them out. The cache bounds memory (LRU per shard) and contention
//! (shard-per-key-hash, one mutex each, in the style of sharded web-cache
//! tiers). Hit/miss/eviction/purge counts live in the server's metrics
//! registry and are exposed by `/v1/metrics` as `remi_cache_*_total`.

use std::sync::Arc;

use parking_lot::Mutex;

use remi_kb::cache::LruCache;
use remi_obs::{Counter, Registry};

/// A cache key: the entity plus fingerprints of everything else that
/// determines the response bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The canonical request descriptor (endpoint + every parameter that
    /// affects the body, in fixed order), e.g.
    /// `describe?entity=e:X&exceptions=0&k=1&lang=remi&threads=2`.
    pub request: String,
    /// Fingerprint of the resident KB content (see
    /// [`remi_kb::content_fingerprint`]).
    pub kb: u64,
}

const SHARDS: usize = 16;

/// A sharded LRU over rendered response bodies. Capacity 0 disables
/// caching entirely (every `get` misses, every `put` is a no-op) — the
/// configuration the cold-path benchmarks use.
#[derive(Debug)]
pub struct ResponseCache {
    shards: Vec<Mutex<LruCache<CacheKey, Arc<str>>>>,
    /// Lookups answered from the cache.
    hits: Arc<Counter>,
    /// Lookups that fell through to rendering.
    misses: Arc<Counter>,
    /// Entries displaced by the LRU bound.
    evictions: Arc<Counter>,
    /// Stale-generation entries dropped by fingerprint rotation.
    purged: Arc<Counter>,
    capacity: usize,
}

impl ResponseCache {
    /// A cache holding at most `capacity` entries, spread over up to 16
    /// shards, counting into `remi_cache_{hits,misses,evictions,purged}_total`
    /// on `registry`.
    pub fn new(capacity: usize, registry: &Registry) -> ResponseCache {
        let shards = if capacity == 0 {
            Vec::new()
        } else {
            // Small capacities get fewer shards so the per-shard LRU bound
            // (capacity / shards) stays meaningful.
            let n = SHARDS.min(capacity);
            let per_shard = capacity.div_ceil(n);
            (0..n)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect()
        };
        ResponseCache {
            shards,
            hits: registry.counter("remi_cache_hits_total"),
            misses: registry.counter("remi_cache_misses_total"),
            evictions: registry.counter("remi_cache_evictions_total"),
            purged: registry.counter("remi_cache_purged_total"),
            capacity,
        }
    }

    /// Total capacity across shards (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently resident across all shards.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// Drops every entry whose KB fingerprint differs from `live_fp` —
    /// those generations can never be requested again, so waiting for LRU
    /// pressure would only hold their memory hostage. Returns the number
    /// of entries purged.
    pub fn purge_stale(&self, live_fp: u64) -> u64 {
        let mut purged = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            purged += shard.retain(|key, _| key.kb == live_fp) as u64;
        }
        self.purged.add(purged);
        purged
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<LruCache<CacheKey, Arc<str>>> {
        let mut hasher = remi_kb::fx::FxHasher::default();
        std::hash::Hash::hash(key, &mut hasher);
        let hash = std::hash::Hasher::finish(&hasher);
        // lint:allow(panic-in-serve): index is `hash % len` on a non-empty shard vec — in bounds by construction
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// Looks up a rendered body, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<str>> {
        let found = if self.shards.is_empty() {
            None
        } else {
            self.shard(key).lock().get(key).cloned()
        };
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Inserts a rendered body, evicting the shard's LRU entry when full.
    pub fn put(&self, key: CacheKey, body: Arc<str>) {
        if self.shards.is_empty() {
            return;
        }
        let mut shard = self.shard(&key).lock();
        if shard.len() == shard.capacity() && shard.peek(&key).is_none() {
            self.evictions.inc();
        }
        shard.put(key, body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(request: &str) -> CacheKey {
        CacheKey {
            request: request.to_string(),
            kb: 7,
        }
    }

    fn new_cache(capacity: usize) -> ResponseCache {
        ResponseCache::new(capacity, &Registry::new())
    }

    #[test]
    fn hit_miss_and_eviction_accounting() {
        let cache = new_cache(1); // single shard, single entry
        assert!(cache.get(&key("a")).is_none());
        cache.put(key("a"), "A".into());
        assert_eq!(cache.get(&key("a")).as_deref(), Some("A"));
        cache.put(key("b"), "B".into()); // evicts a
        assert!(cache.get(&key("a")).is_none());
        assert_eq!(cache.hits.get(), 1);
        assert_eq!(cache.misses.get(), 2);
        assert_eq!(cache.evictions.get(), 1);
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.capacity(), 1);
    }

    #[test]
    fn rewriting_a_key_is_not_an_eviction() {
        let cache = new_cache(1);
        cache.put(key("a"), "A".into());
        cache.put(key("a"), "A2".into());
        assert_eq!(cache.evictions.get(), 0);
        assert_eq!(cache.get(&key("a")).as_deref(), Some("A2"));
    }

    #[test]
    fn distinct_kb_fingerprints_do_not_collide() {
        let cache = new_cache(64);
        cache.put(
            CacheKey {
                request: "r".into(),
                kb: 1,
            },
            "one".into(),
        );
        cache.put(
            CacheKey {
                request: "r".into(),
                kb: 2,
            },
            "two".into(),
        );
        assert_eq!(
            cache
                .get(&CacheKey {
                    request: "r".into(),
                    kb: 1
                })
                .as_deref(),
            Some("one")
        );
        assert_eq!(
            cache
                .get(&CacheKey {
                    request: "r".into(),
                    kb: 2
                })
                .as_deref(),
            Some("two")
        );
    }

    #[test]
    fn zero_capacity_disables_caching_but_counts_misses() {
        let cache = new_cache(0);
        cache.put(key("a"), "A".into());
        assert!(cache.get(&key("a")).is_none());
        assert_eq!(cache.misses.get(), 1);
        assert_eq!(cache.capacity(), 0);
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn purge_stale_drops_only_dead_generations() {
        let cache = new_cache(64);
        for fp in [1u64, 2, 3] {
            for i in 0..5 {
                cache.put(
                    CacheKey {
                        request: format!("r{i}"),
                        kb: fp,
                    },
                    format!("body-{fp}-{i}").into(),
                );
            }
        }
        let purged = cache.purge_stale(3);
        assert_eq!(purged, 10, "two dead generations of five entries");
        assert_eq!(cache.purged.get(), 10);
        assert_eq!(cache.entries(), 5);
        // The live generation survives byte-for-byte.
        for i in 0..5 {
            assert_eq!(
                cache
                    .get(&CacheKey {
                        request: format!("r{i}"),
                        kb: 3
                    })
                    .as_deref(),
                Some(format!("body-3-{i}").as_str())
            );
        }
        // Purging again is a no-op.
        assert_eq!(cache.purge_stale(3), 0);
        // A disabled cache purges nothing and never panics.
        assert_eq!(new_cache(0).purge_stale(3), 0);
    }

    #[test]
    fn concurrent_hammer_preserves_bounds_and_accounting() {
        // Satellite test: many threads hammer a small cache; afterwards the
        // resident-entry bound holds and hits + misses equals the exact
        // number of get() calls issued.
        let cache = Arc::new(new_cache(32));
        let threads = 8;
        let gets_per_thread = 2_000;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..gets_per_thread {
                        let k = key(&format!("req-{}", (t * 31 + i * 7) % 101));
                        if cache.get(&k).is_none() {
                            cache.put(k, format!("body-{t}-{i}").into());
                        }
                    }
                });
            }
        });
        assert_eq!(
            cache.hits.get() + cache.misses.get(),
            (threads * gets_per_thread) as u64
        );
        assert!(
            cache.entries() <= 32 + 15, // per-shard rounding: ceil(32/16)*16
            "entries {} exceed the rounded capacity",
            cache.entries()
        );
        assert!(
            cache.hits.get() > 0,
            "a 101-key working set must hit a 32-entry LRU"
        );
        assert!(
            cache.evictions.get() > 0,
            "a 101-key working set must evict"
        );
    }
}
