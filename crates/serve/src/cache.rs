//! Read-mostly LRU cache for spectral precomputation.
//!
//! The expensive, model-independent half of a CasCN prediction — building
//! the CasLaplacian, scaling it, and expanding the Chebyshev bases
//! (Eq. 7–10) — depends only on the cascade and the observation window,
//! not on the learned parameters. A serving process that sees the same
//! cascade repeatedly (polling clients, load tests, hot content) can reuse
//! the [`SpectralBasis`] across requests *and across hot model reloads*.
//!
//! The cache is a sorted `Vec` searched by binary search — no `HashMap`,
//! so lookup order and eviction are fully deterministic given the access
//! sequence. Hits take only the read lock: recency is tracked by a relaxed
//! per-entry [`AtomicU64`] stamped from a global tick, so the common path
//! never serializes readers. Misses compute the basis *outside* any lock
//! and take the write lock only to publish.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use cascn_cascades::Cascade;
use cascn_graph::SpectralBasis;

use crate::sync::{read_recover, write_recover};

/// Content fingerprint of a cascade — FNV-1a 64 over the id, start time,
/// and every event. Picks the cache slot; it is **not** collision
/// resistant (FNV is not cryptographic, and an adversarial client can
/// craft colliding payloads), so every hit is verified against the full
/// cascade content stored in the entry before a basis is shared.
pub fn cascade_key(c: &Cascade) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(c.id);
    mix(c.start_time.to_bits());
    for e in &c.events {
        mix(e.user);
        mix(e.parent.map_or(u64::MAX, |p| p as u64));
        mix(e.time.to_bits());
    }
    h
}

/// Bitwise content equality: id, start-time bits, and every event field.
/// Times compare by bit pattern — the same identity the spectral pipeline
/// uses (an IEEE `==` would let `NaN != NaN` defeat verification).
fn same_cascade(a: &Cascade, b: &Cascade) -> bool {
    a.id == b.id
        && a.start_time.to_bits() == b.start_time.to_bits()
        && a.events.len() == b.events.len()
        && a.events.iter().zip(&b.events).all(|(x, y)| {
            x.user == y.user && x.parent == y.parent && x.time.to_bits() == y.time.to_bits()
        })
}

/// Cache key: the cascade content fingerprint and the exact window bits.
/// Windows are keyed by `f64::to_bits` so two windows hit the same entry
/// only when they are bit-identical — the same contract the spectral
/// pipeline itself has.
type Key = (u64, u64);

struct Entry {
    key: Key,
    /// The exact cascade this entry was computed from. Hits compare their
    /// cascade against it, so a fingerprint collision degrades to
    /// recompute-and-replace — never to silently serving another
    /// cascade's basis.
    cascade: Cascade,
    basis: Arc<SpectralBasis>,
    /// Global tick at last access; relaxed ordering is fine because the
    /// stamp only steers eviction, never correctness.
    last_used: AtomicU64,
    /// True for entries restored from a disk snapshot ([`BasisCache::seed`])
    /// that have not been recomputed since — hits on them are the
    /// "warm-start" signal a restarted replica reports.
    warm: bool,
}

/// Point-in-time counters for the metrics endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Fingerprint collisions detected by content verification: a lookup
    /// landed on an entry whose stored cascade differs bit-for-bit.
    pub collisions: u64,
    /// Hits served from snapshot-restored (warm) entries — nonzero on a
    /// restarted replica proves the persisted cache actually carried state
    /// across the crash.
    pub warm_hits: u64,
    pub entries: usize,
    /// Entries currently resident that came from a snapshot restore.
    pub warm_entries: usize,
    pub approx_bytes: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when the cache has seen no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded, deterministic LRU of spectral bases keyed by
/// `(cascade id, window bits)`.
pub struct BasisCache {
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
    warm_hits: AtomicU64,
    entries: RwLock<Vec<Entry>>,
}

impl BasisCache {
    /// A cache holding at most `capacity` bases. Zero disables caching:
    /// every lookup computes and nothing is retained.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            entries: RwLock::new(Vec::new()),
        }
    }

    /// Returns the basis for `(cascade, window)`, computing it with
    /// `compute` on a miss. The closure runs outside every lock, so slow
    /// spectral work never blocks concurrent hits; when two threads race
    /// on the same key the loser's computation is discarded in favor of
    /// the published entry.
    ///
    /// Entries are *located* by the [`cascade_key`] fingerprint but
    /// *verified* by full content comparison, so two different cascades
    /// whose fingerprints collide thrash one slot (recompute-and-replace,
    /// counted in [`CacheStats::collisions`]) instead of silently sharing
    /// a basis.
    pub fn get_or_insert_with(
        &self,
        cascade: &Cascade,
        window: f64,
        compute: impl FnOnce() -> SpectralBasis,
    ) -> Arc<SpectralBasis> {
        self.get_or_insert_keyed((cascade_key(cascade), window.to_bits()), cascade, compute)
    }

    /// [`get_or_insert_with`](Self::get_or_insert_with) with the slot key
    /// supplied by the caller — split out so tests can force two cascades
    /// onto one slot without forging a real FNV collision.
    fn get_or_insert_keyed(
        &self,
        key: Key,
        cascade: &Cascade,
        compute: impl FnOnce() -> SpectralBasis,
    ) -> Arc<SpectralBasis> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(compute());
        }

        {
            let entries = read_recover(&self.entries);
            if let Ok(idx) = entries.binary_search_by_key(&key, |e| e.key) {
                if same_cascade(&entries[idx].cascade, cascade) {
                    let now = self.tick.fetch_add(1, Ordering::Relaxed);
                    entries[idx].last_used.store(now, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if entries[idx].warm {
                        self.warm_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    return Arc::clone(&entries[idx].basis);
                }
                // Fingerprint collision: fall through to the miss path;
                // the write lock below replaces the occupant.
            }
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let basis = Arc::new(compute());

        let mut entries = write_recover(&self.entries);
        match entries.binary_search_by_key(&key, |e| e.key) {
            Ok(idx) => {
                if same_cascade(&entries[idx].cascade, cascade) {
                    // Another thread published the same content while we
                    // computed — keep theirs so every caller holding this
                    // key sees one shared allocation.
                    Arc::clone(&entries[idx].basis)
                } else {
                    // Collision: last writer wins the slot. The colliding
                    // pair will thrash it, but neither can ever be served
                    // the other's basis.
                    self.collisions.fetch_add(1, Ordering::Relaxed);
                    let now = self.tick.fetch_add(1, Ordering::Relaxed);
                    let entry = &mut entries[idx];
                    entry.cascade = cascade.clone();
                    entry.basis = Arc::clone(&basis);
                    entry.last_used.store(now, Ordering::Relaxed);
                    entry.warm = false;
                    basis
                }
            }
            Err(_) => {
                if entries.len() >= self.capacity {
                    // Evict the least-recently-used entry; ties (only
                    // possible before any hit bumps a stamp) break toward
                    // the smallest key so eviction stays deterministic.
                    if let Some(victim) = (0..entries.len())
                        .min_by_key(|&i| (entries[i].last_used.load(Ordering::Relaxed), entries[i].key))
                    {
                        entries.remove(victim);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Recompute the slot — eviction may have shifted it.
                let at = entries
                    .binary_search_by_key(&key, |e| e.key)
                    .unwrap_or_else(|at| at);
                let now = self.tick.fetch_add(1, Ordering::Relaxed);
                entries.insert(
                    at,
                    Entry {
                        key,
                        cascade: cascade.clone(),
                        basis: Arc::clone(&basis),
                        last_used: AtomicU64::new(now),
                        warm: false,
                    },
                );
                basis
            }
        }
    }

    /// Publishes a precomputed basis for `(cascade, window)`, replacing any
    /// occupant of the slot — the seeding path of `POST /observe`, which
    /// already holds the live cascade's current operator and wants the
    /// next `/predict` on the same content to hit instead of recomputing.
    /// Counted as neither hit nor miss; evicts LRU at capacity like a miss.
    pub fn put(&self, cascade: &Cascade, window: f64, basis: SpectralBasis) {
        if self.capacity == 0 {
            return;
        }
        let key: Key = (cascade_key(cascade), window.to_bits());
        let basis = Arc::new(basis);
        let mut entries = write_recover(&self.entries);
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        match entries.binary_search_by_key(&key, |e| e.key) {
            Ok(idx) => {
                let entry = &mut entries[idx];
                if !same_cascade(&entry.cascade, cascade) {
                    self.collisions.fetch_add(1, Ordering::Relaxed);
                    entry.cascade = cascade.clone();
                }
                entry.basis = basis;
                entry.last_used.store(now, Ordering::Relaxed);
                entry.warm = false;
            }
            Err(_) => {
                if entries.len() >= self.capacity {
                    if let Some(victim) = (0..entries.len())
                        .min_by_key(|&i| (entries[i].last_used.load(Ordering::Relaxed), entries[i].key))
                    {
                        entries.remove(victim);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let at = entries
                    .binary_search_by_key(&key, |e| e.key)
                    .unwrap_or_else(|at| at);
                entries.insert(
                    at,
                    Entry {
                        key,
                        cascade: cascade.clone(),
                        basis,
                        last_used: AtomicU64::new(now),
                        warm: false,
                    },
                );
            }
        }
    }

    /// Current counters and an estimate of resident bytes.
    pub fn stats(&self) -> CacheStats {
        let entries = read_recover(&self.entries);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            entries: entries.len(),
            warm_entries: entries.iter().filter(|e| e.warm).count(),
            approx_bytes: entries.iter().map(|e| e.basis.approx_bytes()).sum(),
        }
    }

    /// A point-in-time copy of every resident entry in least-recently-used
    /// order — the snapshot the persistence layer writes to disk. Restoring
    /// the returned sequence through [`seed`](Self::seed) in the same order
    /// reproduces the cache's eviction priority.
    pub fn export(&self) -> Vec<(Cascade, f64, Arc<SpectralBasis>)> {
        let entries = read_recover(&self.entries);
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| (entries[i].last_used.load(Ordering::Relaxed), entries[i].key));
        order
            .into_iter()
            .map(|i| {
                let e = &entries[i];
                (e.cascade.clone(), f64::from_bits(e.key.1), Arc::clone(&e.basis))
            })
            .collect()
    }

    /// Installs snapshot-restored entries, oldest first, marking each as
    /// warm. Intended for startup, before the cache takes traffic; entries
    /// beyond `capacity` and duplicate keys are dropped (first occurrence
    /// wins). Returns how many entries were installed.
    pub fn seed(&self, restored: Vec<(Cascade, f64, SpectralBasis)>) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let mut entries = write_recover(&self.entries);
        let mut installed = 0usize;
        for (cascade, window, basis) in restored {
            if entries.len() >= self.capacity {
                break;
            }
            let key: Key = (cascade_key(&cascade), window.to_bits());
            let Err(at) = entries.binary_search_by_key(&key, |e| e.key) else {
                continue;
            };
            let now = self.tick.fetch_add(1, Ordering::Relaxed);
            entries.insert(
                at,
                Entry {
                    key,
                    cascade,
                    basis: Arc::new(basis),
                    last_used: AtomicU64::new(now),
                    warm: true,
                },
            );
            installed += 1;
        }
        installed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_cascades::Event;
    use cascn_tensor::{Csr, Matrix, SparseOp};

    /// The 2-node operator `diag(value − 1, −1)`: Laplacian `diag(value, 0)`
    /// scaled by `λ_max = 2`.
    fn tiny_basis(value: f32) -> SpectralBasis {
        let scaled = Matrix::diag(&[value - 1.0, -1.0]);
        SpectralBasis::from_parts(2.0, 1, Arc::new(SparseOp::from_csr(Csr::from_dense(&scaled))))
    }

    /// A one-plus-`extra`-event cascade whose content is a function of `id`.
    fn cas(id: u64, extra: usize) -> Cascade {
        let mut events = vec![Event { user: id, parent: None, time: 0.0 }];
        for i in 1..=extra {
            events.push(Event { user: id + i as u64, parent: Some(0), time: i as f64 });
        }
        Cascade::new(id, 0.0, events)
    }

    #[test]
    fn content_key_separates_same_id_different_events() {
        let a = cas(1, 2);
        let b = cas(1, 3);
        assert_ne!(cascade_key(&a), cascade_key(&b));
        assert_eq!(cascade_key(&a), cascade_key(&a.clone()));
    }

    #[test]
    fn hit_returns_the_cached_allocation() {
        let cache = BasisCache::new(4);
        let c = cas(7, 0);
        let a = cache.get_or_insert_with(&c, 25.0, || tiny_basis(1.0));
        let b = cache.get_or_insert_with(&c, 25.0, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.approx_bytes > 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_bits_distinguish_entries() {
        let cache = BasisCache::new(4);
        let c = cas(7, 0);
        let _ = cache.get_or_insert_with(&c, 25.0, || tiny_basis(1.0));
        let _ = cache.get_or_insert_with(&c, 26.0, || tiny_basis(2.0));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let cache = BasisCache::new(2);
        let (c1, c2, c3) = (cas(1, 0), cas(2, 0), cas(3, 0));
        let _ = cache.get_or_insert_with(&c1, 1.0, || tiny_basis(1.0));
        let _ = cache.get_or_insert_with(&c2, 1.0, || tiny_basis(2.0));
        // Touch 1 so 2 becomes the LRU victim.
        let _ = cache.get_or_insert_with(&c1, 1.0, || panic!("cached"));
        let _ = cache.get_or_insert_with(&c3, 1.0, || tiny_basis(3.0));
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        // 1 survived, 2 was evicted.
        let _ = cache.get_or_insert_with(&c1, 1.0, || panic!("1 must survive"));
        let mut recomputed = false;
        let _ = cache.get_or_insert_with(&c2, 1.0, || {
            recomputed = true;
            tiny_basis(2.0)
        });
        assert!(recomputed, "2 was evicted and must recompute");
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let cache = BasisCache::new(0);
        let c = cas(1, 0);
        let mut calls = 0;
        for _ in 0..3 {
            let _ = cache.get_or_insert_with(&c, 1.0, || {
                calls += 1;
                tiny_basis(1.0)
            });
        }
        assert_eq!(calls, 3);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 0));
    }

    #[test]
    fn export_and_seed_round_trip_preserves_content_and_lru_order() {
        let cache = BasisCache::new(4);
        let (c1, c2, c3) = (cas(1, 1), cas(2, 2), cas(3, 3));
        let _ = cache.get_or_insert_with(&c1, 1.0, || tiny_basis(1.0));
        let _ = cache.get_or_insert_with(&c2, 1.0, || tiny_basis(2.0));
        let _ = cache.get_or_insert_with(&c3, 1.0, || tiny_basis(3.0));
        // Touch 1 so the LRU order becomes 2, 3, 1.
        let _ = cache.get_or_insert_with(&c1, 1.0, || panic!("cached"));
        let exported = cache.export();
        let ids: Vec<u64> = exported.iter().map(|(c, _, _)| c.id).collect();
        assert_eq!(ids, vec![2, 3, 1], "export is LRU order, oldest first");

        let restored = BasisCache::new(2);
        let installed = restored.seed(
            exported
                .iter()
                .map(|(c, w, b)| (c.clone(), *w, (**b).clone()))
                .collect(),
        );
        assert_eq!(installed, 2, "seed respects the new capacity");
        let s = restored.stats();
        assert_eq!((s.entries, s.warm_entries), (2, 2));
        // The restored entries hit without recomputing, and count as warm.
        let _ = restored.get_or_insert_with(&c2, 1.0, || panic!("warm entry"));
        assert_eq!(restored.stats().warm_hits, 1);
        // A recomputed slot loses its warm flag.
        let _ = restored.get_or_insert_with(&cas(9, 1), 1.0, || tiny_basis(9.0));
    }

    #[test]
    fn put_seeds_the_slot_a_later_lookup_hits() {
        let cache = BasisCache::new(2);
        let c = cas(4, 2);
        cache.put(&c, 25.0, tiny_basis(4.0));
        let got = cache.get_or_insert_with(&c, 25.0, || panic!("seeded entry must hit"));
        assert_eq!(got.lambda_max, 2.0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 0, 1));
        // Re-putting the same key replaces the basis in place.
        cache.put(&c, 25.0, tiny_basis(5.0));
        assert_eq!(cache.stats().entries, 1);
        // Puts respect capacity with LRU eviction.
        cache.put(&cas(5, 1), 25.0, tiny_basis(5.0));
        cache.put(&cas(6, 1), 25.0, tiny_basis(6.0));
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        // Zero capacity: put is a no-op.
        let off = BasisCache::new(0);
        off.put(&c, 25.0, tiny_basis(1.0));
        assert_eq!(off.stats().entries, 0);
    }

    #[test]
    fn seeding_a_zero_capacity_cache_is_a_no_op() {
        let cache = BasisCache::new(0);
        let c = cas(1, 0);
        let basis = tiny_basis(1.0);
        assert_eq!(cache.seed(vec![(c, 1.0, basis)]), 0);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn fingerprint_collisions_never_share_a_basis() {
        let cache = BasisCache::new(4);
        let (a, b) = (cas(1, 1), cas(2, 2));
        // Force both cascades onto one slot, as a forged FNV collision
        // (or a chance one at scale) would.
        let key: Key = (42, 1.0f64.to_bits());
        let first = cache.get_or_insert_keyed(key, &a, || tiny_basis(1.0));
        let second = cache.get_or_insert_keyed(key, &b, || tiny_basis(2.0));
        assert!(!Arc::ptr_eq(&first, &second), "colliding cascades must not alias");
        let s = cache.stats();
        assert_eq!(s.collisions, 1);
        assert_eq!((s.hits, s.misses), (0, 2), "a collision is a miss, not a hit");
        assert_eq!(s.entries, 1, "collisions replace the slot, never duplicate it");
        // The last writer owns the slot: `b` now hits, `a` recomputes.
        let again = cache.get_or_insert_keyed(key, &b, || panic!("b owns the slot"));
        assert!(Arc::ptr_eq(&second, &again));
        let mut recomputed = false;
        let _ = cache.get_or_insert_keyed(key, &a, || {
            recomputed = true;
            tiny_basis(1.0)
        });
        assert!(recomputed, "a was displaced and must recompute");
        assert_eq!(cache.stats().collisions, 2);
    }
}
