//! A small fixed-capacity LRU cache.
//!
//! Used for the RecNMP per-rank hot-entry caches (1 MiB per rank PE, paper
//! §5.1) and as the serving memo's recency list. Implemented with a
//! HashMap + intrusive doubly-linked list over a slab, so every operation
//! is O(1) and deterministic. Storage grows with the keys held, up to the
//! capacity.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU set: `touch` inserts/refreshes a key and reports
/// whether it was already present.
#[derive(Debug, Clone)]
pub struct LruCache<K: Eq + Hash + Clone> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K>>,
    head: usize, // most recent
    tail: usize, // least recent
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone> LruCache<K> {
    /// Creates a cache holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (use an `Option` at the call site for
    /// "no cache").
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            // Grown on demand: a large bound (the serving memo's is 65,536)
            // must not cost its full table in every cache up front.
            map: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether `key` is currently cached (no recency update, no stats).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Accesses `key`: returns `true` on hit. On miss the key is inserted,
    /// evicting the least recently used key if full.
    pub fn touch(&mut self, key: K) -> bool {
        self.touch_evict(key).0
    }

    /// [`touch`](Self::touch), additionally returning the key evicted to
    /// make room (always `None` on a hit). Lets callers that pair this
    /// recency list with an external value store drop the evicted value.
    pub fn touch_evict(&mut self, key: K) -> (bool, Option<K>) {
        if let Some(&idx) = self.map.get(&key) {
            self.hits += 1;
            self.move_to_front(idx);
            return (true, None);
        }
        self.misses += 1;
        let evicted = if self.map.len() == self.capacity {
            Some(self.evict_tail())
        } else {
            None
        };
        let idx = self.nodes.len();
        self.nodes.push(Node {
            key: key.clone(),
            prev: NIL,
            next: self.head,
        });
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.map.insert(key, idx);
        (false, evicted)
    }

    fn move_to_front(&mut self, idx: usize) {
        if idx == self.head {
            return;
        }
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        }
        if idx == self.tail {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
    }

    fn evict_tail(&mut self) -> K {
        let old_tail = self.tail;
        debug_assert_ne!(old_tail, NIL, "evict from empty cache");
        let key = self.nodes[old_tail].key.clone();
        self.map.remove(&key);
        let prev = self.nodes[old_tail].prev;
        self.tail = prev;
        if prev != NIL {
            self.nodes[prev].next = NIL;
        } else {
            self.head = NIL;
        }
        // Reuse the slab slot: swap-remove pattern.
        let last = self.nodes.len() - 1;
        if old_tail != last {
            self.nodes.swap(old_tail, last);
            let moved_key = self.nodes[old_tail].key.clone();
            self.map.insert(moved_key, old_tail);
            let (p, n) = (self.nodes[old_tail].prev, self.nodes[old_tail].next);
            if p != NIL {
                self.nodes[p].next = old_tail;
            }
            if n != NIL {
                self.nodes[n].prev = old_tail;
            }
            if self.head == last {
                self.head = old_tail;
            }
            if self.tail == last {
                self.tail = old_tail;
            }
        }
        self.nodes.pop();
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = LruCache::new(2);
        assert!(!c.touch(1));
        assert!(c.touch(1));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn evicts_least_recent() {
        let mut c = LruCache::new(2);
        c.touch(1);
        c.touch(2);
        c.touch(1); // refresh 1; 2 is now LRU
        c.touch(3); // evicts 2
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
        assert!(c.contains(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::new(1);
        assert!(!c.touch("a"));
        assert!(!c.touch("b"));
        assert!(c.touch("b"));
        assert!(!c.touch("a"));
    }

    #[test]
    fn storage_grows_with_the_keys_not_the_bound() {
        let mut c = LruCache::new(1 << 16);
        assert_eq!((c.map.capacity(), c.nodes.capacity()), (0, 0));
        for key in 0..10u64 {
            c.touch(key);
        }
        assert!(c.map.capacity() < 64 && c.nodes.capacity() < 64);
        assert_eq!(c.capacity(), 1 << 16);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        LruCache::<u64>::new(0);
    }

    #[test]
    fn touch_evict_reports_victim() {
        let mut c = LruCache::new(2);
        assert_eq!(c.touch_evict(1), (false, None));
        assert_eq!(c.touch_evict(2), (false, None));
        assert_eq!(c.touch_evict(1), (true, None), "hit never evicts");
        assert_eq!(c.touch_evict(3), (false, Some(2)), "LRU key 2 evicted");
        assert!(c.contains(&1) && c.contains(&3));
    }

    #[test]
    fn long_stream_consistency() {
        // Compare against a naive reference implementation.
        let cap = 8;
        let mut c = LruCache::new(cap);
        let mut reference: Vec<u64> = Vec::new(); // front = most recent
        let mut state = 12345u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 20;
            let expect_hit = reference.contains(&key);
            assert_eq!(c.touch(key), expect_hit, "key {key}");
            reference.retain(|&k| k != key);
            reference.insert(0, key);
            reference.truncate(cap);
            assert_eq!(c.len(), reference.len());
        }
    }
}
