//! A least-recently-used cache.
//!
//! The paper's implementation notes (§3.5.2): *"REMI requires the execution
//! of the same queries multiple times, thus query results are cached in a
//! least-recently-used fashion."* This module provides that cache: a classic
//! hash map + intrusive doubly-linked list over a slab, O(1) for get/put.

use std::hash::Hash;

use crate::fx::FxHashMap;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// An LRU cache with a fixed capacity.
///
/// `get` refreshes recency; `put` inserts or updates and evicts the least
/// recently used entry when full. Hit/miss counters support the search
/// statistics reported by the mining harness.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (min 1). The
    /// storage grows with the entries, not with the capacity: a miner's
    /// evaluator is built per describe with room for 16,384 lists and
    /// typically caches a few hundred.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            map: FxHashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.move_to_front(idx);
                Some(&self.slots[idx].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Checks presence without touching recency or counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.slots[idx].value)
    }

    /// Inserts or replaces `key`, evicting the LRU entry when at capacity.
    pub fn put(&mut self, key: K, value: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            self.move_to_front(idx);
            return;
        }
        if self.map.len() == self.capacity {
            let evict = self.tail;
            debug_assert_ne!(evict, NIL);
            self.detach(evict);
            let old_key = self.slots[evict].key.clone();
            self.map.remove(&old_key);
            self.slots[evict].key = key.clone();
            self.slots[evict].value = value;
            self.map.insert(key, evict);
            self.attach_front(evict);
        } else {
            let idx = self.slots.len();
            if idx == self.slots.capacity() {
                // Double, but never past the capacity.
                self.slots
                    .reserve_exact(idx.max(4).min(self.capacity - idx));
            }
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, idx);
            self.attach_front(idx);
        }
    }

    /// Fetches `key` or computes, inserts, and returns it.
    pub fn get_or_insert_with(&mut self, key: K, f: impl FnOnce() -> V) -> &V {
        if let Some(&idx) = self.map.get(&key) {
            self.hits += 1;
            self.move_to_front(idx);
            return &self.slots[idx].value;
        }
        self.misses += 1;
        self.put(key.clone(), f());
        let idx = self.map[&key];
        &self.slots[idx].value
    }

    /// Removes everything, keeping counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keeps only the entries `f` approves of, preserving recency order.
    /// Returns how many entries were dropped. O(n); used for targeted
    /// invalidation (e.g. purging stale-generation response entries).
    pub fn retain(&mut self, mut f: impl FnMut(&K, &V) -> bool) -> usize {
        // Record the recency order LRU → MRU, then rebuild by re-putting
        // survivors in that order (put attaches to the front, so the MRU
        // entry ends up at the head again).
        let mut order = Vec::with_capacity(self.map.len());
        let mut idx = self.tail;
        while idx != NIL {
            order.push(idx);
            idx = self.slots[idx].prev;
        }
        let slots = std::mem::take(&mut self.slots);
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
        let mut payload: Vec<Option<Slot<K, V>>> = slots.into_iter().map(Some).collect();
        let mut dropped = 0usize;
        for i in order {
            let slot = payload[i]
                .take()
                .expect("recency list visits each slot once");
            if f(&slot.key, &slot.value) {
                self.put(slot.key, slot.value);
            } else {
                dropped += 1;
            }
        }
        dropped
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.detach(idx);
        self.attach_front(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_get_put() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        assert!(c.get(&1).is_none());
        c.put(1, "one");
        c.put(2, "two");
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&2), Some(&"two"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        c.get(&1); // 2 becomes LRU
        c.put(3, 30);
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
    }

    #[test]
    fn put_refreshes_existing_key() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        c.put(1, 11); // refresh 1; 2 is now LRU
        c.put(3, 30);
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn capacity_one_behaves() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.put(1, 10);
        c.put(2, 20);
        assert!(c.get(&1).is_none());
        assert_eq!(c.get(&2), Some(&20));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let c: LruCache<u32, u32> = LruCache::new(0);
        assert_eq!(c.capacity(), 1);
    }

    #[test]
    fn storage_grows_with_the_entries_up_to_the_capacity() {
        let mut c: LruCache<u32, u32> = LruCache::new(1000);
        assert_eq!(c.slots.capacity(), 0);
        for i in 0..10 {
            c.put(i, i);
        }
        assert!(c.slots.capacity() < 1000);
        for i in 10..5000 {
            c.put(i, i);
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.slots.capacity(), 1000);
        assert_eq!(c.get(&4999), Some(&4999));
        assert!(c.get(&3999).is_none());
    }

    #[test]
    fn hit_miss_counters() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        c.get(&1);
        c.put(1, 1);
        c.get(&1);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn get_or_insert_with_computes_once() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        let mut calls = 0;
        for _ in 0..3 {
            c.get_or_insert_with(7, || {
                calls += 1;
                70
            });
        }
        assert_eq!(calls, 1);
        assert_eq!(c.peek(&7), Some(&70));
    }

    #[test]
    fn retain_preserves_recency_of_survivors() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        for k in 0..4 {
            c.put(k, k * 10);
        }
        c.get(&0); // order (LRU→MRU): 1, 2, 3, 0
        let dropped = c.retain(|&k, _| k != 2);
        assert_eq!(dropped, 1);
        assert_eq!(c.len(), 3);
        assert!(c.peek(&2).is_none());
        // Inserting one new entry evicts the LRU survivor (1), not 3 or 0.
        c.put(9, 90);
        c.put(8, 80);
        assert!(c.peek(&1).is_none());
        assert_eq!(c.peek(&3), Some(&30));
        assert_eq!(c.peek(&0), Some(&0));
    }

    #[test]
    fn retain_everything_or_nothing() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for k in 0..3 {
            c.put(k, k);
        }
        assert_eq!(c.retain(|_, _| true), 0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.retain(|_, _| false), 3);
        assert!(c.is_empty());
        assert_eq!(c.retain(|_, _| true), 0); // empty cache is fine
    }

    #[test]
    fn clear_empties_cache() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        c.put(1, 1);
        c.put(2, 2);
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&1).is_none());
        c.put(3, 3);
        assert_eq!(c.get(&3), Some(&3));
    }

    /// Reference model: the cache must behave exactly like a naive
    /// recency-list implementation for any operation sequence.
    #[derive(Debug, Clone)]
    enum Op {
        Get(u8),
        Put(u8, u16),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>()).prop_map(Op::Get),
            (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Put(k, v)),
        ]
    }

    proptest! {
        #[test]
        fn prop_matches_reference_model(
            cap in 1usize..8,
            ops in proptest::collection::vec(op_strategy(), 0..200),
        ) {
            let mut cache: LruCache<u8, u16> = LruCache::new(cap);
            // Reference: Vec of (key, value), front = most recent.
            let mut model: Vec<(u8, u16)> = Vec::new();
            for op in ops {
                match op {
                    Op::Get(k) => {
                        let expected = model.iter().position(|&(mk, _)| mk == k).map(|i| {
                            let e = model.remove(i);
                            model.insert(0, e);
                            e.1
                        });
                        prop_assert_eq!(cache.get(&k).copied(), expected);
                    }
                    Op::Put(k, v) => {
                        if let Some(i) = model.iter().position(|&(mk, _)| mk == k) {
                            model.remove(i);
                        } else if model.len() == cap {
                            model.pop();
                        }
                        model.insert(0, (k, v));
                        cache.put(k, v);
                    }
                }
                prop_assert_eq!(cache.len(), model.len());
            }
        }
    }
}
