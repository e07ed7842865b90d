//! Shared-memory union-find for PAREMSP (§IV of the paper).
//!
//! PAREMSP splits the provisional label space into per-thread ranges. The
//! lifecycle of the shared parent array is:
//!
//! 1. **Scan phase** — each thread registers and merges labels only within
//!    its own range, through a [`ChunkStore`] view (plain Rem's algorithm;
//!    relaxed atomic accesses, no contention by construction).
//! 2. **Boundary merge phase** — threads merge labels across ranges with a
//!    [`ConcurrentMerger`]: either [`locked::LockedMerger`] (the paper's
//!    Algorithm 8, per-node locks) or [`atomic::CasMerger`] (every write
//!    validated with `compare_exchange`).
//! 3. **Analysis phase** — after the merge threads join,
//!    [`ConcurrentParents::flatten_sparse`] renumbers the (gap-containing)
//!    label space into consecutive final labels.
//!
//! ## Memory-ordering notes
//!
//! All atomic accesses use `Relaxed` ordering. The algorithms only need
//! (a) word atomicity and (b) per-location coherence — exactly the
//! assumptions §IV states for the OpenMP original ("memory read/write
//! operations are atomic … issued concurrently … executed in some unknown
//! sequential order"). Rust's `Relaxed` guarantees both. Cross-thread
//! *phase* ordering comes from thread join (scan → merge → flatten), and
//! the mutex in [`locked::LockedMerger`] orders its critical sections.
//!
//! The Rem invariant `p[x] ≤ x` is preserved by every write either merger
//! issues: a slot is only ever overwritten with a value smaller than a
//! previously observed value of some slot on the walk, all bounded by the
//! slot index (see the proofs in Patwary–Refsnes–Manne, the paper's
//! ref \[38\]). The stress tests below and in `tests/` check the partitions
//! against sequential RemSP over many seeds and thread counts.

pub mod atomic;
pub mod locked;

use std::sync::atomic::{AtomicU32, Ordering};

use crate::flatten::UNUSED;
use crate::EquivalenceStore;

pub use atomic::CasMerger;
pub use locked::LockedMerger;

/// The shared provisional-label parent array.
///
/// Slot 0 is the reserved background label; unregistered slots hold
/// [`UNUSED`]. See the module docs for the three-phase lifecycle.
pub struct ConcurrentParents {
    slots: Vec<AtomicU32>,
}

impl ConcurrentParents {
    /// Allocates a label space of `capacity` slots (slot 0 = background,
    /// pre-registered; the rest unused until a scan registers them).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must cover the background slot");
        assert!(
            capacity < UNUSED as usize,
            "label space too large for u32 sentinel"
        );
        let mut slots = Vec::with_capacity(capacity);
        slots.push(AtomicU32::new(0));
        for _ in 1..capacity {
            slots.push(AtomicU32::new(UNUSED));
        }
        ConcurrentParents { slots }
    }

    /// Number of slots (registered or not).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current parent of `x`.
    #[inline]
    pub fn load(&self, x: u32) -> u32 {
        self.slots[x as usize].load(Ordering::Relaxed)
    }

    /// Unconditional parent write (used by the scan views and the locked
    /// merger; see module docs for why `Relaxed` suffices).
    #[inline]
    pub(crate) fn store(&self, x: u32, value: u32) {
        self.slots[x as usize].store(value, Ordering::Relaxed);
    }

    /// Validated parent write: succeeds only when the slot still holds
    /// `expected`.
    #[inline]
    pub(crate) fn compare_exchange(&self, x: u32, expected: u32, value: u32) -> bool {
        self.slots[x as usize]
            .compare_exchange(expected, value, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// A scan-phase view for one thread's label range.
    pub fn chunk_store(&self) -> ChunkStore<'_> {
        ChunkStore { parents: self }
    }

    /// Sparse FLATTEN over the shared array (Algorithm 3 extended with
    /// [`UNUSED`] gaps). Must run after all merge threads have joined —
    /// enforced by `&mut self`. Returns the number of components.
    pub fn flatten_sparse(&mut self) -> u32 {
        let len = self.slots.len();
        let mut k = 1u32;
        for i in 1..len {
            let pi = *self.slots[i].get_mut();
            if pi == UNUSED {
                continue;
            }
            debug_assert!((pi as usize) <= i, "monotone invariant: p[{i}] = {pi}");
            let new = if (pi as usize) < i {
                // parent already holds its final label
                self.slots[pi as usize].load(Ordering::Relaxed)
            } else {
                let v = k;
                k += 1;
                v
            };
            *self.slots[i].get_mut() = new;
        }
        k - 1
    }

    /// Post-[`Self::flatten_sparse`] lookup of the final label of `x`.
    /// Safe to call from many threads concurrently (read-only).
    #[inline]
    pub fn resolve(&self, x: u32) -> u32 {
        self.load(x)
    }

    /// FLATTEN over explicitly known *used* label ranges (ascending,
    /// disjoint, densely registered — exactly what PAREMSP's scan phase
    /// produces, since every chunk registers labels consecutively from
    /// its offset). Skips the unused gaps entirely, so the cost is
    /// O(labels actually created) instead of O(label-space capacity).
    /// Returns the number of components.
    ///
    /// # Panics
    /// Debug-panics if a slot inside a claimed range is unregistered.
    pub fn flatten_ranges(&mut self, used: &[(u32, u32)]) -> u32 {
        let mut k = 1u32;
        for &(start, end) in used {
            debug_assert!(start >= 1 && end as usize <= self.slots.len());
            for i in start..end {
                let pi = *self.slots[i as usize].get_mut();
                debug_assert_ne!(pi, UNUSED, "unregistered slot {i} inside used range");
                debug_assert!(pi <= i, "monotone invariant: p[{i}] = {pi}");
                let new = if pi < i {
                    // the parent is a used slot with a smaller index, so
                    // it was already rewritten to its final label
                    self.slots[pi as usize].load(Ordering::Relaxed)
                } else {
                    let v = k;
                    k += 1;
                    v
                };
                *self.slots[i as usize].get_mut() = new;
            }
        }
        k - 1
    }

    /// Parallel form of [`Self::flatten_ranges`] (same final labels):
    /// per-range root counts, prefix sums, then root assignment and
    /// non-root resolution as rayon pool tasks, one per range.
    pub fn flatten_ranges_parallel(&mut self, used: &[(u32, u32)]) -> u32 {
        if used.len() <= 1 {
            return self.flatten_ranges(used);
        }
        let mut counts = vec![0u32; used.len()];
        rayon::scope(|s| {
            for (slot, &(a, b)) in counts.iter_mut().zip(used) {
                let this = &*self;
                s.spawn(move |_| {
                    let mut n = 0u32;
                    for i in a..b {
                        if this.load(i) == i {
                            n += 1;
                        }
                    }
                    *slot = n;
                });
            }
        });
        let mut bases = Vec::with_capacity(used.len());
        let mut running = 1u32;
        for &c in &counts {
            bases.push(running);
            running += c;
        }
        let total = running - 1;
        let finals: Vec<AtomicU32> = (0..self.slots.len())
            .map(|_| AtomicU32::new(UNUSED))
            .collect();
        finals[0].store(0, Ordering::Relaxed);
        rayon::scope(|s| {
            for (&base, &(a, b)) in bases.iter().zip(used) {
                let this = &*self;
                let finals = &finals;
                s.spawn(move |_| {
                    let mut next = base;
                    for i in a..b {
                        if this.load(i) == i {
                            finals[i as usize].store(next, Ordering::Relaxed);
                            next += 1;
                        }
                    }
                });
            }
        });
        rayon::scope(|s| {
            for &(a, b) in used {
                let this = &*self;
                let finals = &finals;
                s.spawn(move |_| {
                    for i in a..b {
                        let p = this.load(i);
                        if p == i {
                            continue;
                        }
                        let mut root = p;
                        while this.load(root) != root {
                            root = this.load(root);
                        }
                        finals[i as usize].store(
                            finals[root as usize].load(Ordering::Relaxed),
                            Ordering::Relaxed,
                        );
                    }
                });
            }
        });
        // install, restricted to the used ranges (atomic stores are fine:
        // we hold &mut self, and every prior task has joined)
        rayon::scope(|s| {
            for &(a, b) in used {
                let this = &*self;
                let finals = &finals;
                s.spawn(move |_| {
                    for (i, f) in (a..b).zip(&finals[a as usize..b as usize]) {
                        this.store(i, f.load(Ordering::Relaxed));
                    }
                });
            }
        });
        total
    }

    /// Copies the current parent array out (testing / benchmarking aid:
    /// lets a benchmark restore pre-flatten state between iterations).
    pub fn snapshot(&self) -> Vec<u32> {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    /// Rebuilds a parent array from a [`Self::snapshot`].
    ///
    /// # Panics
    /// Panics on an empty snapshot or one whose background slot moved.
    pub fn from_snapshot(parents: &[u32]) -> Self {
        assert!(!parents.is_empty(), "snapshot must cover the background");
        assert_eq!(parents[0], 0, "background slot must stay 0");
        ConcurrentParents {
            slots: parents.iter().map(|&p| AtomicU32::new(p)).collect(),
        }
    }

    /// Test/diagnostic helper: asserts the Rem monotone invariant over all
    /// registered slots.
    pub fn assert_monotone(&self) {
        for i in 0..self.slots.len() {
            let p = self.load(i as u32);
            if p != UNUSED {
                assert!(p as usize <= i, "p[{i}] = {p} violates monotonicity");
            }
        }
    }
}

impl std::fmt::Debug for ConcurrentParents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConcurrentParents(capacity={})", self.slots.len())
    }
}

/// Scan-phase view: lets one thread run plain (sequential) Rem's algorithm
/// over its own label range of the shared array. Implements
/// [`EquivalenceStore`] so the generic scan functions in `ccl-core` accept
/// it interchangeably with the sequential structures.
pub struct ChunkStore<'a> {
    parents: &'a ConcurrentParents,
}

impl EquivalenceStore for ChunkStore<'_> {
    #[inline]
    fn new_label(&mut self, label: u32) {
        debug_assert_eq!(
            self.parents.load(label),
            UNUSED,
            "label {label} registered twice"
        );
        self.parents.store(label, label);
    }

    /// Sequential Rem merge (Algorithm 2) through relaxed atomics. Safe
    /// because scan-phase merges never cross thread label ranges.
    #[inline]
    fn merge(&mut self, x: u32, y: u32) -> u32 {
        let p = self.parents;
        let mut rootx = x;
        let mut rooty = y;
        loop {
            let px = p.load(rootx);
            let py = p.load(rooty);
            if px == py {
                return px;
            }
            if px > py {
                if rootx == px {
                    p.store(rootx, py);
                    return py;
                }
                p.store(rootx, py);
                rootx = px;
            } else {
                if rooty == py {
                    p.store(rooty, px);
                    return px;
                }
                p.store(rooty, px);
                rooty = py;
            }
        }
    }
}

/// Common interface of the boundary-merge implementations.
pub trait ConcurrentMerger: Sync {
    /// Merges the sets of `x` and `y` in the shared parent array. May be
    /// called concurrently from many threads with arbitrary arguments.
    fn merge(&self, parents: &ConcurrentParents, x: u32, y: u32);

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_initializes_background_and_sentinels() {
        let p = ConcurrentParents::new(4);
        assert_eq!(p.load(0), 0);
        assert_eq!(p.load(1), UNUSED);
        assert_eq!(p.load(3), UNUSED);
        assert_eq!(p.capacity(), 4);
    }

    #[test]
    fn chunk_store_runs_sequential_rem() {
        let p = ConcurrentParents::new(8);
        let mut store = p.chunk_store();
        for l in 1..8 {
            store.new_label(l);
        }
        store.merge(3, 5);
        store.merge(5, 1);
        assert_eq!(p.load(5), 1);
        p.assert_monotone();
        let chase = |mut x: u32| {
            while p.load(x) != x {
                x = p.load(x);
            }
            x
        };
        assert_eq!(chase(3), 1);
        assert_eq!(chase(5), 1);
        assert_eq!(chase(2), 2);
    }

    #[test]
    fn flatten_sparse_skips_gaps() {
        let mut p = ConcurrentParents::new(8);
        {
            let mut store = p.chunk_store();
            store.new_label(2);
            store.new_label(3);
            store.new_label(6);
            store.merge(2, 6);
        }
        let k = p.flatten_sparse();
        assert_eq!(k, 2);
        assert_eq!(p.resolve(0), 0);
        assert_eq!(p.resolve(2), 1);
        assert_eq!(p.resolve(3), 2);
        assert_eq!(p.resolve(6), 1);
        assert_eq!(p.load(1), UNUSED);
    }

    #[test]
    fn flatten_of_fresh_space_is_zero_components() {
        let mut p = ConcurrentParents::new(16);
        assert_eq!(p.flatten_sparse(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        ConcurrentParents::new(0);
    }

    #[test]
    fn snapshot_round_trip() {
        let p = ConcurrentParents::new(5);
        {
            let mut store = p.chunk_store();
            store.new_label(2);
            store.new_label(4);
            store.merge(2, 4);
        }
        let snap = p.snapshot();
        let q = ConcurrentParents::from_snapshot(&snap);
        assert_eq!(q.snapshot(), snap);
    }
}
