//! The carry-merge stage — everything that happens to a band (or tile
//! row) after it is scanned, shared by [`StripLabeler`](crate::StripLabeler)
//! and the `ccl-tiles` grid labeler.
//!
//! PAREMSP's second phase merges the chunk-boundary rows. The out-of-core
//! engines apply that step once per band against the *carried* last row
//! of the previous band. [`CarryMerge::merge`] takes a [`ScannedRows`] —
//! the full-width first and last label rows, the band's equivalences
//! ([`BandUf`]), the scan workers' partial accumulators and the label
//! ranges they used — and
//!
//! 1. absorbs the first row into the partials (its upper neighbours are
//!    the carry row, which the scan stage must not read) — O(width);
//! 2. merges the carry seam and folds every used label's partial onto its
//!    root — *during* the seam for sequential RemSP (via
//!    [`FoldingStore`]), right *after* it for the concurrent parent array,
//!    where folding mid-union would race — O(labels), not O(pixels);
//! 3. folds the carried accumulators in, recording carried-id merges;
//! 4. assigns fresh ids in raster order of each new component's anchor;
//! 5. compacts the components still open on the last row to active ids
//!    `1..=k` and rebuilds the carry row (in column spans across the
//!    workers in parallel mode);
//! 6. emits every closed component, ascending id.
//!
//! What stays with the caller is the scan and its own label output —
//! strips for the strip labeler, per-tile buffers for the grid labeler —
//! both resolved through [`MergedRows::gid`].
//!
//! Output never depends on the mode: the bookkeeping only sees
//! set-minimum roots, which RemSP and the concurrent mergers agree on, and
//! the fold is exact (commutative, associative, integer-valued f64 sums;
//! see [`crate::analysis`]).

use std::ops::Range;

use ccl_core::scan::{merge_seam, split_spans, Foldable as _, FoldingStore};
use ccl_unionfind::par::ConcurrentParents;
use ccl_unionfind::{RemSP, UnionFind};

use crate::analysis::{Accum, ComponentSink};
use crate::labeler::{StreamStats, StripConfig};
use crate::parallel::carry_seam_parallel;

/// Post-scan view of one band's equivalences: sequential RemSP or the
/// parallel shared parent array. Both are Rem-family (parents ≤
/// children), so a root is always its set's minimum label — the property
/// the merge stage relies on for mode-independent output.
pub enum BandUf {
    /// Sequential mode: one RemSP store owns the whole label space.
    Seq(RemSP),
    /// Parallel mode: the shared parent array the worker scans and seam
    /// merges operated on (all workers joined).
    Par(ConcurrentParents),
}

impl BandUf {
    fn find(&mut self, x: u32) -> u32 {
        match self {
            BandUf::Seq(uf) => uf.find(x),
            BandUf::Par(p) => root_in(p, x),
        }
    }

    /// Memoized [`BandUf::find`] (`u32::MAX` = unresolved).
    fn find_cached(&mut self, cache: &mut [u32], x: u32) -> u32 {
        if cache[x as usize] == u32::MAX {
            cache[x as usize] = self.find(x);
        }
        cache[x as usize]
    }

    fn slots(&self) -> usize {
        match self {
            BandUf::Seq(uf) => uf.len(),
            BandUf::Par(p) => p.capacity(),
        }
    }
}

/// Root of `x` in a joined parent array (no compression: read-only).
#[inline]
fn root_in(parents: &ConcurrentParents, x: u32) -> u32 {
    let mut r = x;
    loop {
        let q = parents.load(r);
        if q == r {
            return r;
        }
        r = q;
    }
}

/// Folds every used label's partial onto its root (`find`), listing the
/// roots in `touched`.
fn fold_onto_roots(
    used: &[Range<u32>],
    acc: &mut [Accum],
    touched: &mut Vec<u32>,
    mut find: impl FnMut(u32) -> u32,
) {
    for l in used.iter().cloned().flatten() {
        if acc[l as usize].is_empty() {
            continue;
        }
        let root = find(l);
        if root == l {
            touched.push(l);
        } else {
            let p = std::mem::replace(&mut acc[l as usize], Accum::EMPTY);
            acc[root as usize].fold(&p);
        }
    }
}

/// Carried-id slots a scan must reserve to run before the previous
/// band's compaction is known: no row can carry more open components than
/// `⌈width/2⌉`, because adjacent foreground pixels share one. Unused
/// reserved slots stay singletons no band label resolves to, so the
/// output is the same as with the exact count.
pub fn carry_bound(width: usize) -> u32 {
    width.div_ceil(2) as u32
}

/// One scanned band (or tile row), ready for [`CarryMerge::merge`].
pub struct ScannedRows<L> {
    /// Height in rows (kept for rows with no pixels too).
    pub h: usize,
    /// The caller's label layout — a strip buffer, per-tile buffers —
    /// handed back through [`MergedRows::labels`].
    pub labels: L,
    /// Full-width labels of the first row; empty when the rows hold no
    /// pixels (zero height or zero width).
    pub top: Vec<u32>,
    /// Full-width labels of the last row.
    pub last: Vec<u32>,
    /// Equivalences with every in-band seam merged (the carry seam is the
    /// merge stage's). Carried-id slots `1..=carry_cap` are reserved;
    /// band labels start at `carry_cap + 1`.
    pub uf: BandUf,
    /// Partial accumulators indexed by provisional label, covering every
    /// pixel except the first row's.
    pub partials: Vec<Accum>,
    /// Provisional-label ranges the scan allocated — the fold sweeps these
    /// instead of the whole slot space.
    pub used: Vec<Range<u32>>,
}

impl<L: Default> ScannedRows<L> {
    /// Rows with no pixels (zero height or zero width): the merge stage
    /// only counts them.
    pub fn empty(h: usize) -> Self {
        ScannedRows {
            h,
            labels: L::default(),
            top: Vec::new(),
            last: Vec::new(),
            uf: BandUf::Seq(RemSP::new()),
            partials: Vec::new(),
            used: Vec::new(),
        }
    }
}

impl<L> ScannedRows<L> {
    /// True when the rows hold no pixels.
    pub fn is_degenerate(&self) -> bool {
        self.top.is_empty()
    }
}

/// A merged band, for callers that emit labels: maps each provisional
/// label to its stream id.
pub struct MergedRows<L> {
    /// The labels handed in with the [`ScannedRows`].
    pub labels: L,
    /// Global row of the band's first row.
    pub first_row: usize,
    /// Height of the band in rows.
    pub rows: usize,
    /// Index of the band among those with rows.
    pub index: usize,
    /// Carried-id merges the band revealed, `(kept, absorbed)`, ascending
    /// — to be reported before the band's labels.
    pub merges: Vec<(u64, u64)>,
    root_of: Vec<u32>,
    acc: Vec<Accum>,
}

impl<L> MergedRows<L> {
    /// Stream id of a non-zero provisional label of this band.
    #[inline]
    pub fn gid(&self, label: u32) -> u64 {
        self.acc[self.root_of[label as usize] as usize].gid
    }
}

/// The state carried from one band to the next — the carry row, one
/// [`Accum`] per open component, the id counter, the run's counters —
/// and the merge stage that advances it. See the module docs.
pub struct CarryMerge {
    width: usize,
    cfg: StripConfig,
    rows_done: usize,
    bands_done: usize,
    /// Labels (active ids `1..=k`, 0 = background) of the last row of the
    /// previous band; empty before the first band.
    carry: Vec<u32>,
    /// Accumulators of the open components, indexed by active id (slot 0
    /// unused).
    active: Vec<Accum>,
    next_gid: u64,
    finalized: u64,
    peak_resident_rows: usize,
}

impl CarryMerge {
    /// Fresh state for a stream of the given width.
    pub fn new(width: usize, cfg: StripConfig) -> Self {
        CarryMerge {
            width,
            cfg,
            rows_done: 0,
            bands_done: 0,
            carry: Vec::new(),
            active: vec![Accum::EMPTY],
            next_gid: 1,
            finalized: 0,
            peak_resident_rows: 0,
        }
    }

    /// Stream width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The labeler configuration.
    pub fn config(&self) -> &StripConfig {
        &self.cfg
    }

    /// Rows merged so far.
    pub fn rows_done(&self) -> usize {
        self.rows_done
    }

    /// Bands merged so far (bands with no rows not counted).
    pub fn bands_done(&self) -> usize {
        self.bands_done
    }

    /// Components currently open (touching the carry row) — the exact
    /// carried-id count a synchronous scan reserves.
    pub fn open_components(&self) -> usize {
        self.active.len() - 1
    }

    /// Components emitted so far.
    pub fn finalized_components(&self) -> u64 {
        self.finalized
    }

    /// Maximum pixel rows resident at any point so far: the tallest band
    /// plus the carry row.
    pub fn peak_resident_rows(&self) -> usize {
        self.peak_resident_rows
    }

    /// Merges one scanned band against the carry row, emits the
    /// components that closed, and makes the band's last row the new
    /// carry. Returns the label-to-id view when `want_labels` is set and
    /// the band has pixels.
    pub fn merge<L>(
        &mut self,
        rows: ScannedRows<L>,
        components: &mut dyn ComponentSink,
        want_labels: bool,
    ) -> Option<MergedRows<L>> {
        let ScannedRows {
            h,
            labels,
            top,
            last,
            mut uf,
            partials: mut acc,
            used,
        } = rows;
        if top.is_empty() {
            self.rows_done += h;
            self.bands_done += usize::from(h > 0);
            return None;
        }
        let w = self.width;
        debug_assert_eq!((top.len(), last.len()), (w, w));
        let (first_row, index) = (self.rows_done, self.bands_done);
        let carry = &self.carry;
        self.peak_resident_rows = self
            .peak_resident_rows
            .max(h + usize::from(!carry.is_empty()));
        let n_carry = (self.active.len() - 1) as u32;
        let nslots = uf.slots();
        let mut root_of: Vec<u32> = vec![u32::MAX; nslots];
        let mut touched: Vec<u32> = Vec::new();
        let mut merges: Vec<(u64, u64)> = Vec::new();

        for c in 0..w {
            let l = top[c];
            if l == 0 {
                continue;
            }
            let west = c > 0 && top[c - 1] != 0;
            let (nw, north, ne) = if carry.is_empty() {
                (false, false, false)
            } else {
                (
                    c > 0 && carry[c - 1] != 0,
                    carry[c] != 0,
                    c + 1 < w && carry[c + 1] != 0,
                )
            };
            acc[l as usize].absorb(first_row, c, west, nw, north, ne);
        }

        // After this match `acc[root]` holds the complete accumulator of
        // every component with a pixel in the band (fresh ones still gid
        // 0), `touched` lists the occupied roots, and `merges` the
        // carried-id pairs that turned out to be one component.
        let resolved = match &mut uf {
            BandUf::Seq(store) => {
                fold_onto_roots(&used, &mut acc, &mut touched, |l| store.find(l));
                for id in 1..=n_carry {
                    acc[id as usize] = self.active[id as usize];
                    touched.push(id);
                }
                if !carry.is_empty() {
                    let mut folding = FoldingStore::new(store, &mut acc);
                    merge_seam(carry, &top, &mut folding);
                }
                // Carried ids that now share a root merged: replay the
                // pairwise events.
                let mut kept: Vec<u64> = vec![0; n_carry as usize + 1];
                for id in 1..=n_carry {
                    let root = store.find(id) as usize;
                    debug_assert!(root <= n_carry as usize, "carried roots are carried");
                    let gid = self.active[id as usize].gid;
                    if kept[root] == 0 {
                        kept[root] = gid;
                    } else {
                        let pair = (kept[root].min(gid), kept[root].max(gid));
                        merges.push(pair);
                        kept[root] = pair.0;
                    }
                }
                false
            }
            BandUf::Par(parents) => {
                if !carry.is_empty() {
                    carry_seam_parallel(carry, &top, parents, &self.cfg);
                }
                // Any set holding a carried id is rooted at one: roots
                // are set minima and carried ids occupy the low slots.
                for id in 1..=n_carry {
                    let root = root_in(parents, id);
                    let src = self.active[id as usize];
                    let dst = &mut acc[root as usize];
                    if dst.is_empty() {
                        *dst = src;
                        touched.push(root);
                    } else {
                        let pair = (dst.gid.min(src.gid), dst.gid.max(src.gid));
                        dst.merge_with(&src);
                        dst.gid = pair.0;
                        merges.push(pair);
                    }
                }
                fold_onto_roots(&used, &mut acc, &mut touched, |l| {
                    root_of[l as usize] = root_in(parents, l);
                    root_of[l as usize]
                });
                true
            }
        };

        // Fresh ids in raster order of each new component's anchor —
        // unique per component, so the id sequence is the one a single
        // raster pass would assign.
        let mut fresh: Vec<((usize, usize), u32)> = touched
            .iter()
            .filter(|&&root| {
                let a = &acc[root as usize];
                a.area > 0 && a.gid == 0
            })
            .map(|&root| (acc[root as usize].anchor, root))
            .collect();
        fresh.sort_unstable();
        for &(_, root) in &fresh {
            acc[root as usize].gid = self.next_gid;
            self.next_gid += 1;
        }

        // Components with a pixel on the last row stay open: compact them
        // to active ids 1..=k, in order of first occurrence on the row,
        // and rebuild the carry row. Everything else has closed.
        let mut new_active: Vec<Accum> = vec![Accum::EMPTY];
        let mut new_carry = vec![0u32; w];
        let mut survivor_id: Vec<u32> = vec![0; nslots];
        if resolved && w > 1 {
            // Each column span lists its first-seen roots in order
            // (parallel), ids are assigned walking the spans left to
            // right, then the carry row is filled back (parallel) — the
            // same ranks as the sequential walk.
            let spans = split_spans(w, self.cfg.threads);
            let mut firsts: Vec<Vec<u32>> = vec![Vec::new(); spans.len()];
            rayon::scope(|s| {
                for (out, span) in firsts.iter_mut().zip(&spans) {
                    let (last, root_of) = (&last, &root_of);
                    s.spawn(move |_| {
                        let mut seen = std::collections::HashSet::new();
                        for &l in &last[span.clone()] {
                            if l != 0 && seen.insert(root_of[l as usize]) {
                                out.push(root_of[l as usize]);
                            }
                        }
                    });
                }
            });
            for root in firsts.into_iter().flatten() {
                if survivor_id[root as usize] == 0 {
                    new_active.push(acc[root as usize]);
                    survivor_id[root as usize] = (new_active.len() - 1) as u32;
                }
            }
            rayon::scope(|s| {
                let mut rest: &mut [u32] = &mut new_carry;
                for span in &spans {
                    let (mine, tail) = rest.split_at_mut(span.len());
                    rest = tail;
                    let (last, root_of, survivor_id) = (&last, &root_of, &survivor_id);
                    s.spawn(move |_| {
                        for (&l, slot) in last[span.clone()].iter().zip(mine) {
                            if l != 0 {
                                *slot = survivor_id[root_of[l as usize] as usize];
                            }
                        }
                    });
                }
            });
        } else {
            for (c, &l) in last.iter().enumerate() {
                if l == 0 {
                    continue;
                }
                // Sequential stores resolve lazily: the carry seam moved
                // roots after the fold sweep.
                let root = uf.find_cached(&mut root_of, l) as usize;
                if survivor_id[root] == 0 {
                    new_active.push(acc[root]);
                    survivor_id[root] = (new_active.len() - 1) as u32;
                }
                new_carry[c] = survivor_id[root];
            }
        }

        let mut closed: Vec<Accum> = touched
            .iter()
            .filter(|&&root| survivor_id[root as usize] == 0 && acc[root as usize].area > 0)
            .map(|&root| acc[root as usize])
            .collect();
        closed.sort_by_key(|a| a.gid);
        for a in closed {
            self.finalized += 1;
            components.component(&a.into_record());
        }

        self.active = new_active;
        self.carry = new_carry;
        self.rows_done += h;
        self.bands_done += 1;

        if !want_labels {
            return None;
        }
        if !resolved {
            for l in used.iter().cloned().flatten() {
                uf.find_cached(&mut root_of, l);
            }
        }
        merges.sort_unstable();
        Some(MergedRows {
            labels,
            first_row,
            rows: h,
            index,
            merges,
            root_of,
            acc,
        })
    }

    /// Closes the stream: every still-open component is emitted (ascending
    /// id), and the run's summary returned.
    pub fn finish<C: ComponentSink + ?Sized>(mut self, components: &mut C) -> StreamStats {
        let mut remaining: Vec<Accum> = self.active.drain(1..).collect();
        remaining.sort_by_key(|a| a.gid);
        for acc in remaining {
            self.finalized += 1;
            components.component(&acc.into_record());
        }
        StreamStats {
            width: self.width,
            rows: self.rows_done,
            bands: self.bands_done,
            components: self.finalized,
            peak_resident_rows: self.peak_resident_rows,
        }
    }
}
