//! Bounded least-recently-used cache — the workspace's one LRU.
//!
//! A run-time controller modulating the pump continuously can visit an
//! unbounded set of (flow, Δt) operating points; an unbounded map of
//! factorisations is a slow memory leak. Operators are cheap to rebuild
//! through the numeric refactorisation path, so a small LRU loses little
//! on eviction. The same type backs the batch runner's cross-batch
//! analysis cache (keyed by a whole operator pattern) and the serving
//! daemon's result cache.

/// A fixed-capacity LRU map over a small number of entries.
///
/// Backed by a `Vec` kept in recency order (most recent last): with the
/// capacities used here (single digits to a few hundred), linear scans
/// beat any pointer-chasing scheme and keep the order trivially
/// deterministic. Keys only need equality, so a composite key (a stack,
/// a grid and thermal parameters) matches exactly rather than by hash.
/// Capacity 0 disables the cache: every lookup misses and every insert
/// is dropped.
#[derive(Debug, Clone)]
pub struct LruCache<K: PartialEq, V> {
    capacity: usize,
    entries: Vec<(K, V)>,
    evictions: u64,
}

impl<K: PartialEq, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (0 disables
    /// it). Storage grows with use, so a capacity taken from outside the
    /// program allocates nothing up front.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            entries: Vec::new(),
            evictions: 0,
        }
    }

    /// Looks up `k`, marking it most recently used. A hit on the
    /// already-most-recent entry (the common case in a control loop that
    /// dwells on one operating point) skips the recency move entirely.
    pub fn get(&mut self, k: &K) -> Option<&V> {
        self.get_mut(k).map(|v| &*v)
    }

    /// Looks up `k` without touching recency (usable through `&self`).
    pub fn peek(&self, k: &K) -> Option<&V> {
        self.entries
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v)
    }

    /// Mutable lookup, marking `k` most recently used.
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        let idx = self.entries.iter().position(|(key, _)| key == k)?;
        if idx + 1 != self.entries.len() {
            self.entries[idx..].rotate_left(1);
        }
        Some(&mut self.entries.last_mut().expect("non-empty after hit").1)
    }

    /// Inserts or replaces `k`, evicting the least recently used entry if
    /// the cache is full. A zero-capacity cache drops the entry.
    pub fn insert(&mut self, k: K, v: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(idx) = self.entries.iter().position(|(key, _)| *key == k) {
            self.entries.remove(idx);
        } else if self.entries.len() == self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
        self.entries.push((k, v));
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a")); // 1 becomes most recent
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.peek(&2).is_none());
        assert_eq!(c.peek(&1), Some(&"a"));
        assert_eq!(c.peek(&3), Some(&"c"));
    }

    #[test]
    fn reinsert_updates_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.peek(&1), Some(&11));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Recency through `get` alone, with a non-`Copy` key.
        let mut c = LruCache::new(2);
        c.insert("one".to_string(), "a");
        c.insert("two".to_string(), "b");
        assert_eq!(c.get(&"one".to_string()), Some(&"a")); // now MRU
        c.insert("three".to_string(), "c"); // evicts "two"
        assert_eq!(c.get(&"two".to_string()), None);
        assert_eq!(c.get(&"one".to_string()), Some(&"a"));
        assert_eq!(c.get(&"three".to_string()), Some(&"c"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut c = LruCache::new(0);
        c.insert(1, "a");
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
        assert_eq!(c.evictions(), 0, "a dropped insert is not an eviction");
    }

    #[test]
    fn reinserting_a_key_refreshes_in_place() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(1, "a2"); // refresh, no eviction; 1 is now MRU
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        c.insert(3, "c"); // evicts 2, the least recently used
        assert_eq!(c.get(&1), Some(&"a2"));
        assert_eq!(c.peek(&2), None);
    }
}
