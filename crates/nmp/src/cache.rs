//! A small fixed-capacity LRU map.
//!
//! Used for the RecNMP per-rank hot-entry caches (1 MiB per rank PE, paper
//! §5.1), as a set with `()` values, and for the serving memo, which maps
//! batch signatures to cycles. Implemented with a HashMap + intrusive
//! doubly-linked list over a slab, so every operation is O(1) and
//! deterministic. Storage grows with the keys held, up to the capacity.
//!
//! The map and the slab each hold one handle per key, so a key that owns a
//! large allocation should be shared (`Rc<[u64]>`): both handles then point
//! at the same allocation, and lookups borrow it (`&[u64]`).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map. With the default `()` values it is an LRU
/// set: `touch` inserts/refreshes a key and reports whether it was already
/// present.
#[derive(Debug, Clone)]
pub struct LruCache<K: Eq + Hash + Clone, V = ()> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    head: usize, // most recent
    tail: usize, // least recent
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
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

    /// Whether `key` is currently cached (no recency update).
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// The value cached under `key`, refreshing the key's recency on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let idx = *self.map.get(key)?;
        self.move_to_front(idx);
        Some(&self.nodes[idx].value)
    }

    /// Caches `value` under `key` as the most recent entry, replacing the
    /// value of a key already present. Returns the least recently used
    /// entry evicted to make room, if the cache was full.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.move_to_front(idx);
            return None;
        }
        let evicted = (self.map.len() == self.capacity).then(|| self.evict_tail());
        let idx = self.nodes.len();
        self.nodes.push(Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        self.push_front(idx);
        self.map.insert(key, idx);
        evicted
    }

    fn move_to_front(&mut self, idx: usize) {
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn evict_tail(&mut self) -> (K, V) {
        let idx = self.tail;
        debug_assert_ne!(idx, NIL, "evict from empty cache");
        self.unlink(idx);
        // Free the slab slot: the last node moves into it.
        let node = self.nodes.swap_remove(idx);
        self.map.remove(&node.key);
        if idx < self.nodes.len() {
            let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
            if prev != NIL {
                self.nodes[prev].next = idx;
            } else {
                self.head = idx;
            }
            if next != NIL {
                self.nodes[next].prev = idx;
            } else {
                self.tail = idx;
            }
            *self
                .map
                .get_mut(&self.nodes[idx].key)
                .expect("every slab node is mapped") = idx;
        }
        (node.key, node.value)
    }
}

impl<K: Eq + Hash + Clone> LruCache<K> {
    /// Accesses `key`: returns `true` on hit. On miss the key is inserted,
    /// evicting the least recently used key if full.
    pub fn touch(&mut self, key: K) -> bool {
        let hit = self.get(&key).is_some();
        if !hit {
            self.insert(key, ());
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn hit_after_insert() {
        let mut c = LruCache::new(2);
        assert!(!c.touch(1));
        assert!(c.touch(1));
        assert_eq!(c.len(), 1);
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
    fn insert_reports_victim() {
        let mut c = LruCache::new(2);
        assert_eq!(c.insert(1, 'a'), None);
        assert_eq!(c.insert(2, 'b'), None);
        assert_eq!(c.get(&1).copied(), Some('a'), "get refreshes 1");
        assert_eq!(c.insert(1, 'A'), None, "replacing never evicts");
        assert_eq!(c.insert(3, 'c'), Some((2, 'b')), "LRU entry 2 evicted");
        assert_eq!(
            (c.get(&1).copied(), c.get(&2).copied(), c.get(&3).copied()),
            (Some('A'), None, Some('c'))
        );
    }

    /// A shared key is one allocation held by both the map and the slab,
    /// and is looked up by the borrowed slice.
    #[test]
    fn shared_keys_are_looked_up_by_slice() {
        let mut c: LruCache<Rc<[u64]>, u64> = LruCache::new(2);
        let key: Rc<[u64]> = Rc::from(vec![7, 8, 9]);
        c.insert(Rc::clone(&key), 42);
        assert_eq!(Rc::strong_count(&key), 3, "caller, map and slab");
        assert_eq!(c.get(&[7, 8, 9][..]).copied(), Some(42));
        c.insert(Rc::from(vec![1]), 1);
        c.insert(Rc::from(vec![2]), 2);
        assert_eq!(Rc::strong_count(&key), 1, "eviction drops both handles");
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
            assert_eq!(c.nodes.len(), reference.len());
            assert!(c.map.iter().all(|(k, &i)| c.nodes[i].key == *k));
        }
    }
}
