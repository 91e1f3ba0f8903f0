//! The content-addressed result cache: a bounded, thread-safe map from
//! job fingerprints ([`crate::sweep::job_fingerprint`]) to shared
//! results, with in-flight coalescing — concurrent requests for the
//! same fingerprint run **one** simulation and everyone else blocks on
//! the condvar until it lands.
//!
//! Because a fingerprint covers everything that determines a job's
//! outcome and the simulator is deterministic, a cached value is not an
//! approximation of re-running the job — it *is* the result, byte for
//! byte. That is what lets a [`crate::runner::Runner`] answer a repeated
//! job — a figure's baselines, a resubmitted server sweep — with zero
//! re-simulations.
//!
//! `BTreeMap`/`BTreeSet` keep the cache's own behavior deterministic
//! (lint D2): stats and eviction order are functions of the request
//! history, never of hasher seeding.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheRole {
    /// This caller ran the computation.
    Computed,
    /// The value was already cached.
    Hit,
    /// Another caller was computing it; this one waited and shared.
    Coalesced,
}

/// A point-in-time copy of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the map.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Lookups that waited on a concurrent identical computation.
    pub coalesced: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Computations that produced no value (failed jobs; not cached).
    pub failures: u64,
    /// Current entry count.
    pub entries: usize,
    /// Configured capacity (0 = unbounded).
    pub capacity: usize,
}

struct Inner<V> {
    map: BTreeMap<u64, Arc<V>>,
    /// Keys in least-recently-used-first order (front = next victim).
    lru: VecDeque<u64>,
    /// Keys currently being computed by some caller.
    inflight: BTreeSet<u64>,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    failures: u64,
}

/// A bounded LRU cache with single-flight computation per key.
pub struct ResultCache<V> {
    inner: Mutex<Inner<V>>,
    cond: Condvar,
    capacity: usize,
}

impl<V> ResultCache<V> {
    /// Creates a cache holding up to `capacity` entries (0 = unbounded).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                lru: VecDeque::new(),
                inflight: BTreeSet::new(),
                hits: 0,
                misses: 0,
                coalesced: 0,
                evictions: 0,
                failures: 0,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        // A poisoned mutex means some caller panicked between lock and
        // unlock; the counters and map are still structurally sound, so
        // keep serving rather than cascading the panic.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, computing it with `compute` on a miss. Concurrent
    /// callers with the same key coalesce: exactly one runs `compute`,
    /// the rest block until the value (or failure) is published.
    ///
    /// A `None` from `compute` is a failure: nothing is cached and the
    /// caller gets `None` back. Callers that waited on it wake up and
    /// run the computation themselves, as does any later call.
    pub fn get_or_compute<F>(&self, key: u64, compute: F) -> (Option<Arc<V>>, CacheRole)
    where
        F: FnOnce() -> Option<V>,
    {
        let mut role = CacheRole::Hit;
        let mut inner = self.lock();
        loop {
            if let Some(value) = inner.map.get(&key).cloned() {
                inner.hits += 1;
                touch(&mut inner.lru, key);
                return (Some(value), role);
            }
            if inner.inflight.contains(&key) {
                role = CacheRole::Coalesced;
                inner.coalesced += 1;
                inner = self.cond.wait(inner).unwrap_or_else(PoisonError::into_inner);
                // Re-check: the computer may have succeeded (map hit),
                // failed (retry falls to us), or an eviction raced us.
                continue;
            }
            inner.inflight.insert(key);
            inner.misses += 1;
            break;
        }
        drop(inner);

        let computed = compute();

        let mut inner = self.lock();
        inner.inflight.remove(&key);
        let result = match computed {
            Some(value) => {
                let value = Arc::new(value);
                inner.map.insert(key, value.clone());
                touch(&mut inner.lru, key);
                while self.capacity > 0 && inner.map.len() > self.capacity {
                    let Some(victim) = inner.lru.pop_front() else {
                        break;
                    };
                    if victim == key {
                        // Never evict the entry just inserted; re-queue it.
                        inner.lru.push_back(victim);
                        continue;
                    }
                    inner.map.remove(&victim);
                    inner.evictions += 1;
                }
                Some(value)
            }
            None => {
                inner.failures += 1;
                None
            }
        };
        drop(inner);
        self.cond.notify_all();
        (result, CacheRole::Computed)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            coalesced: inner.coalesced,
            evictions: inner.evictions,
            failures: inner.failures,
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

/// Moves `key` to the most-recently-used end of the LRU order.
fn touch(lru: &mut VecDeque<u64>, key: u64) {
    if let Some(pos) = lru.iter().position(|&k| k == key) {
        lru.remove(pos);
    }
    lru.push_back(key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn hit_miss_and_counters() {
        let cache: ResultCache<u64> = ResultCache::new(8);
        let (v, role) = cache.get_or_compute(1, || Some(10));
        assert_eq!((*v.expect("value"), role), (10, CacheRole::Computed));
        let (v, role) = cache.get_or_compute(1, || panic!("must not recompute"));
        assert_eq!((*v.expect("value"), role), (10, CacheRole::Hit));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache: ResultCache<u64> = ResultCache::new(2);
        let computed = AtomicU64::new(0);
        let get = |key: u64| {
            cache.get_or_compute(key, || {
                computed.fetch_add(1, Ordering::SeqCst);
                Some(key)
            })
        };
        get(1);
        get(2);
        get(1); // a hit: 1 is now the most recent
        get(3); // evicts 2
        assert_eq!(computed.load(Ordering::SeqCst), 3);
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries), (1, 2));
        get(1);
        get(3);
        assert_eq!(computed.load(Ordering::SeqCst), 3, "1 and 3 stayed resident");
        get(2);
        assert_eq!(computed.load(Ordering::SeqCst), 4, "2 was the victim");
    }

    #[test]
    fn failures_are_not_cached_and_can_retry() {
        let cache: ResultCache<u64> = ResultCache::new(8);
        let (v, role) = cache.get_or_compute(1, || None);
        assert!(v.is_none());
        assert_eq!(role, CacheRole::Computed);
        assert_eq!(cache.stats().failures, 1);
        let (v, _) = cache.get_or_compute(1, || Some(5));
        assert_eq!(*v.expect("retry succeeds"), 5);
    }

    #[test]
    fn unbounded_capacity_never_evicts() {
        let cache: ResultCache<u64> = ResultCache::new(0);
        for k in 0..100 {
            cache.get_or_compute(k, || Some(k));
        }
        assert_eq!(cache.stats().entries, 100);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn concurrent_identical_keys_coalesce_to_one_computation() {
        let cache = Arc::new(ResultCache::<u64>::new(8));
        let computations = Arc::new(AtomicU64::new(0));
        let start = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let computations = computations.clone();
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    cache.get_or_compute(42, || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so the others really do
                        // arrive while this computation is in flight.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Some(7)
                    })
                })
            })
            .collect();
        let mut computed = 0;
        for t in threads {
            let (v, role) = t.join().expect("no panic");
            assert_eq!(*v.expect("value"), 7);
            if role == CacheRole::Computed {
                computed += 1;
            }
        }
        assert_eq!(computations.load(Ordering::SeqCst), 1, "exactly one simulation ran");
        assert_eq!(computed, 1);
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.stats().coalesced >= 1, "at least one caller waited");
    }
}
