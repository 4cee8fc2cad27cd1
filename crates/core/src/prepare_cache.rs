//! A shared, single-flight prepare cache — the precompute-once-serve-many
//! memoization behind two caches: each transpiling executor's noise models
//! per active-qubit set ([`crate::executor`]), and the job runtimes that
//! concurrent campaigns and the campaign service's tenants share
//! (`qufi_cli::job::RuntimeCache`). A job runtime holds the job's circuit,
//! golden outputs, baseline QVF, injection points and executor (with its
//! model cache). It holds no prepared point: every injection point still
//! transpiles, compiles its plan and evolves its prefix when it runs (see
//! [`crate::engine`]).
//!
//! Three properties matter to the multi-tenant campaign service built on
//! top of this:
//!
//! * **Single-flight.** When N threads ask for the same missing key at
//!   once, exactly one runs the builder; the rest block on a condvar and
//!   receive the same [`Arc`]. Building a job runtime runs the workload
//!   twice (golden outputs, fault-free baseline), so duplicate
//!   computation — not lock contention — is the cost to kill.
//! * **Bounded.** The cache holds at most `capacity` ready entries and
//!   evicts in insertion order. Each runtime keeps its calibration tables
//!   and noise models; an unbounded cache is an OOM with extra steps.
//! * **Failure is not cached.** A builder error clears the in-flight
//!   slot and wakes waiters so the next caller retries — a transient
//!   failure must not poison the key forever.
//!
//! Determinism: the cache only memoizes values that are pure functions
//! of their key (that is the caller's contract), so cache hits can never
//! change a computed byte — only when the work happens.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

/// Telemetry counter names for one cache instance (all optional — a
/// cache without counters records nothing).
#[derive(Debug, Clone, Copy)]
pub struct CacheCounters {
    /// Incremented on every ready-entry hit.
    pub hits: &'static str,
    /// Incremented when a caller becomes the builder for a missing key.
    pub misses: &'static str,
    /// Incremented per entry evicted by the capacity bound.
    pub evictions: &'static str,
    /// Incremented when a caller blocks on another thread's build.
    pub waits: &'static str,
}

/// Point-in-time cache accounting, for tests and health reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Ready-entry hits served.
    pub hits: u64,
    /// Builds started (one per distinct missing key request).
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Ready entries currently held.
    pub len: usize,
}

enum Slot<V> {
    /// A builder thread is computing this entry.
    Building,
    /// The entry is ready to share.
    Ready(Arc<V>),
}

/// Unwind insurance for the builder: if `build()` panics, the
/// `Building` slot must be cleared and waiters woken — otherwise every
/// thread parked on the condvar for that key blocks forever. Armed
/// between claiming the slot and `build()` returning; a normal return
/// (Ok *or* Err) disarms it and lets the caller's own cleanup run.
struct BuildGuard<'a, K: Eq + Hash + Clone, V> {
    cache: &'a PrepareCache<K, V>,
    key: Option<K>,
}

impl<K: Eq + Hash + Clone, V> BuildGuard<'_, K, V> {
    fn disarm(&mut self) {
        self.key = None;
    }
}

impl<K: Eq + Hash + Clone, V> Drop for BuildGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            let mut inner = self.cache.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.map.remove(&key);
            drop(inner);
            self.cache.ready.notify_all();
        }
    }
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Ready keys in insertion order — the eviction queue.
    order: VecDeque<K>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, thread-safe, single-flight memo cache. See the module docs.
pub struct PrepareCache<K, V> {
    inner: Mutex<Inner<K, V>>,
    ready: Condvar,
    capacity: usize,
    counters: Option<CacheCounters>,
}

impl<K: Eq + Hash + Clone, V> PrepareCache<K, V> {
    /// A cache holding at most `capacity` ready entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PrepareCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            counters: None,
        }
    }

    /// Attaches telemetry counters (recorded through [`qufi_obs`]).
    #[must_use]
    pub fn instrumented(mut self, counters: CacheCounters) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Returns the cached value for `key`, building it with `build` on a
    /// miss. Concurrent callers of the same missing key build once: one
    /// thread runs `build` (outside the lock), the rest wait and share
    /// the result. A `build` error is returned to the builder *and not
    /// cached* — waiters wake and the next one retries.
    ///
    /// # Errors
    ///
    /// Whatever `build` fails with.
    pub fn get_or_try_build<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match inner.map.get(key) {
                    Some(Slot::Ready(v)) => {
                        let v = Arc::clone(v);
                        inner.hits += 1;
                        if let Some(c) = &self.counters {
                            qufi_obs::add(c.hits, 1);
                        }
                        return Ok(v);
                    }
                    Some(Slot::Building) => {
                        if let Some(c) = &self.counters {
                            qufi_obs::add(c.waits, 1);
                        }
                        inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
                    }
                    None => {
                        inner.map.insert(key.clone(), Slot::Building);
                        inner.misses += 1;
                        if let Some(c) = &self.counters {
                            qufi_obs::add(c.misses, 1);
                        }
                        break;
                    }
                }
            }
        }
        // Build outside the lock: prepare work is seconds-scale and other
        // keys must stay servable meanwhile. The guard makes a builder
        // panic behave like a build error (slot cleared, waiters woken)
        // instead of wedging every waiter on the condvar.
        let mut guard = BuildGuard {
            cache: self,
            key: Some(key.clone()),
        };
        let built = build();
        guard.disarm();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let result = match built {
            Ok(value) => {
                let value = Arc::new(value);
                inner
                    .map
                    .insert(key.clone(), Slot::Ready(Arc::clone(&value)));
                inner.order.push_back(key.clone());
                while inner.order.len() > self.capacity {
                    if let Some(old) = inner.order.pop_front() {
                        inner.map.remove(&old);
                        inner.evictions += 1;
                        if let Some(c) = &self.counters {
                            qufi_obs::add(c.evictions, 1);
                        }
                    }
                }
                Ok(value)
            }
            Err(e) => {
                inner.map.remove(key);
                Err(e)
            }
        };
        drop(inner);
        self.ready.notify_all();
        result
    }

    /// Infallible [`PrepareCache::get_or_try_build`].
    pub fn get_or_build(&self, key: &K, build: impl FnOnce() -> V) -> Arc<V> {
        match self.get_or_try_build(key, || Ok::<V, std::convert::Infallible>(build())) {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }

    /// Current accounting.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.order.len(),
        }
    }
}

impl<K, V> std::fmt::Debug for PrepareCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("PrepareCache")
            .field("capacity", &self.capacity)
            .field("len", &inner.order.len())
            .field("hits", &inner.hits)
            .field("misses", &inner.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn hit_shares_the_same_arc_and_builds_once() {
        let cache: PrepareCache<u32, String> = PrepareCache::new(4);
        let builds = AtomicUsize::new(0);
        let a = cache.get_or_build(&7, || {
            builds.fetch_add(1, Ordering::SeqCst);
            "seven".to_string()
        });
        let b = cache.get_or_build(&7, || {
            builds.fetch_add(1, Ordering::SeqCst);
            "SEVEN".to_string()
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn capacity_evicts_in_insertion_order() {
        let cache: PrepareCache<u32, u32> = PrepareCache::new(2);
        for k in 0..3 {
            cache.get_or_build(&k, || k * 10);
        }
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 2);
        // Key 0 was evicted → rebuilding is a miss; key 2 is still a hit.
        let builds = AtomicUsize::new(0);
        cache.get_or_build(&0, || {
            builds.fetch_add(1, Ordering::SeqCst);
            0
        });
        cache.get_or_build(&2, || {
            builds.fetch_add(1, Ordering::SeqCst);
            99
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn build_failure_is_not_cached() {
        let cache: PrepareCache<u32, u32> = PrepareCache::new(2);
        let err = cache.get_or_try_build(&1, || Err::<u32, &str>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        // The slot cleared: the next caller builds (successfully) anew.
        let v = cache.get_or_try_build(&1, || Ok::<u32, &str>(5)).unwrap();
        assert_eq!(*v, 5);
    }

    #[test]
    fn builder_panic_clears_the_slot_and_wakes_waiters() {
        let cache: Arc<PrepareCache<u8, u32>> = Arc::new(PrepareCache::new(2));
        let entered = Arc::new(std::sync::Barrier::new(2));
        let panicker = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_build(&9, || {
                        entered.wait();
                        // Give the waiter time to park on the condvar.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        panic!("builder bug")
                    })
                }));
            })
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                entered.wait();
                // Must not hang: the panicked build clears the slot and
                // this caller becomes the (successful) builder.
                *cache.get_or_build(&9, || 7)
            })
        };
        panicker.join().unwrap();
        assert_eq!(waiter.join().unwrap(), 7);
        // The key stays fully serviceable afterwards.
        assert_eq!(*cache.get_or_build(&9, || 99), 7);
    }

    #[test]
    fn concurrent_same_key_single_flights() {
        let cache: Arc<PrepareCache<u8, u64>> = Arc::new(PrepareCache::new(4));
        let builds = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let builds = Arc::clone(&builds);
            handles.push(std::thread::spawn(move || {
                *cache.get_or_build(&1, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    // Widen the race window: waiters must block, not build.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    42
                })
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }
}
