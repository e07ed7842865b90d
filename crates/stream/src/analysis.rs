//! On-the-fly component analysis — records, accumulators and sinks.
//!
//! Following Lemaitre & Lacassagne's run-based analysis (PAPERS.md), the
//! strip labeler never materializes a label image: every component's
//! features (area, bounding box, centroid, raster-first anchor,
//! 4-neighbourhood perimeter, hole count) are accumulated while its
//! pixels stream past and emitted exactly once, when the component
//! *closes* (no pixel on the stream's frontier row).
//!
//! Consumers implement [`ComponentSink`] (and optionally [`LabelSink`]
//! for labeled strip output); `Vec<ComponentRecord>` works out of the box
//! for collect-everything callers.
//!
//! # Partial accumulators and the seam fold (fused analysis)
//!
//! The engines never walk the pixels in a separate sequential pass.
//! Instead every *scan worker* builds a **partial accumulator table**
//! keyed by provisional label while it scans its chunk (or tile), and
//! the seam/merge stage combines partials per *label*, not per pixel.
//! Three invariants make this exact:
//!
//! 1. **Per-pixel contributions are order-free.** Every pixel contributes
//!    one single-pixel accumulator ([`Accum::pixel`]) computed from its
//!    *already-scanned global* neighbours (west + the three above, read
//!    from the raw pixels — never from another chunk's labels, which may
//!    not exist yet). Areas, bounding boxes, coordinate sums (integer
//!    f64, exact below 2^53), perimeter deltas, Euler deltas and the
//!    raster-min anchor are all folded with a **commutative, associative**
//!    operation whose identity is [`Accum::EMPTY`] — so any partition of
//!    the pixels into partials, folded in any order, reproduces the
//!    raster-order fold bit for bit (property-tested in
//!    `tests/proptest_accum.rs`).
//! 2. **Attribution follows connectivity.** A perimeter/Euler delta is
//!    attributed to the pixel that closes it, and the neighbours it
//!    involves are 8-adjacent — always the same final component — so
//!    per-component sums survive arbitrary chunk/tile/seam merges.
//! 3. **Partials stay where their label is.** A chunk's partials live in
//!    the chunk's disjoint provisional-label range, so scan workers
//!    write without synchronization. The merge stage ([`crate::merge`])
//!    folds each used label's partial onto its union-find root —
//!    O(labels), not O(pixels) — either *during* the carry seam
//!    (sequential stores, via [`ccl_core::scan::FoldingStore`]) or right
//!    after it (concurrent stores, where folding inside the merger would
//!    race).
//!    The only pixels the merge stage ever touches are the band's (or
//!    tile row's) **first line**, whose upper neighbours are the carry
//!    row the scan stage must not depend on — an O(width) absorb.

use ccl_core::label::LabelImage;
use ccl_core::scan::Foldable;

/// Identifier of a streamed component: assigned when the component first
/// appears (raster order of its first pixel), never reused. When two open
/// components turn out to be connected, the smaller (older) id survives.
pub type ComponentId = u64;

/// The features of one finalized component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentRecord {
    /// Stream-unique id (see [`ComponentId`]).
    pub id: ComponentId,
    /// Pixel count.
    pub area: u64,
    /// Inclusive bounding box `(min_row, min_col, max_row, max_col)` in
    /// global image coordinates.
    pub bbox: (usize, usize, usize, usize),
    /// Centroid `(mean_row, mean_col)` in global image coordinates.
    pub centroid: (f64, f64),
    /// Raster-first pixel `(row, col)` — a stable key for matching
    /// components across labelers (no two components share an anchor).
    pub anchor: (usize, usize),
    /// 4-neighbourhood boundary length: the number of pixel edges shared
    /// with background or the image border (Lemaitre & Lacassagne's
    /// on-the-fly perimeter). Folds across merges like area: each pixel
    /// contributes `4 - 2 * (already-seen 4-adjacent neighbours)`, and
    /// summing partial perimeters is exact because 4-adjacent pixels are
    /// always in the same 8-connected component.
    pub perimeter: u64,
    /// Number of holes: 4-connected background regions fully enclosed by
    /// this (8-connected) component, via Lemaitre & Lacassagne's
    /// Euler-characteristic fold — `holes = 1 - χ` where `χ = V − E + F`
    /// of the component's closed-pixel complex, accumulated per pixel
    /// from its already-scanned neighbours (see [`Accum::add`]).
    pub holes: u64,
}

/// Running accumulator behind a [`ComponentRecord`]. `area == 0` marks an
/// unused slot.
///
/// Public because it is the payload of the partial tables a scan hands to
/// the merge stage ([`ScannedRows`](crate::merge::ScannedRows)), which the
/// `ccl-tiles` tile scan fills too. Ordinary consumers only ever see the
/// finished [`ComponentRecord`]s.
#[derive(Debug, Clone, Copy)]
pub struct Accum {
    /// Pixels accumulated so far (0 = unused slot).
    pub area: u64,
    /// Bounding-box minimum row.
    pub min_r: usize,
    /// Bounding-box minimum column.
    pub min_c: usize,
    /// Bounding-box maximum row.
    pub max_r: usize,
    /// Bounding-box maximum column.
    pub max_c: usize,
    /// Row-coordinate sum (integer-valued in f64, exact below 2^53).
    pub sum_r: f64,
    /// Column-coordinate sum.
    pub sum_c: f64,
    /// Raster-first pixel seen so far.
    pub anchor: (usize, usize),
    /// 4-neighbourhood boundary edges accumulated so far.
    pub perimeter: u64,
    /// Euler characteristic `χ = V − E + F` of the closed-pixel complex
    /// accumulated so far (every vertex, edge and face counted exactly
    /// once, at the raster-first pixel incident to it).
    pub euler: i64,
    /// 0 until the component is assigned its [`ComponentId`].
    pub gid: u64,
}

impl Accum {
    /// The unused-slot sentinel (`area == 0`).
    pub const EMPTY: Accum = Accum {
        area: 0,
        min_r: 0,
        min_c: 0,
        max_r: 0,
        max_c: 0,
        sum_r: 0.0,
        sum_c: 0.0,
        anchor: (0, 0),
        perimeter: 0,
        euler: 0,
        gid: 0,
    };

    /// Accumulator holding one pixel. A component's first pixel (in
    /// raster order) never has an already-seen 4-neighbour, so it
    /// contributes the full 4 edges — and the full square (4 vertices,
    /// 4 edges, 1 face), so `χ = 1`.
    #[inline]
    pub fn first(r: usize, c: usize) -> Accum {
        Accum {
            area: 1,
            min_r: r,
            min_c: c,
            max_r: r,
            max_c: c,
            sum_r: r as f64,
            sum_c: c as f64,
            anchor: (r, c),
            perimeter: 4,
            euler: 1,
            gid: 0,
        }
    }

    /// The accumulator of exactly one pixel with the given already-seen
    /// neighbour mask — the unit the fused path folds: a component's
    /// accumulator is the [`Foldable`] sum of its pixels' units (plus
    /// nothing else), in any order. [`Accum::first`] is the special case
    /// with no live neighbours.
    #[inline]
    pub fn pixel(r: usize, c: usize, west: bool, nw: bool, north: bool, ne: bool) -> Accum {
        let mut a = Accum::first(r, c);
        a.perimeter = 4 - 2 * (u64::from(west) + u64::from(north));
        a.euler = 1 + i64::from(north) - i64::from(west || nw || north) - i64::from(north || ne);
        a
    }

    /// Folds one pixel into a possibly-empty accumulator, in any order:
    /// unlike [`Accum::add`] this neither assumes raster arrival nor a
    /// live slot, so partial tables can absorb stray pixels (a band's
    /// first line, accumulated by the merge stage) after the fact.
    #[inline]
    pub fn absorb(&mut self, r: usize, c: usize, west: bool, nw: bool, north: bool, ne: bool) {
        if self.area == 0 {
            *self = Accum::pixel(r, c, west, nw, north, ne);
        } else {
            let anchor = self.anchor.min((r, c));
            self.add(r, c, west, nw, north, ne);
            self.anchor = anchor;
        }
    }

    /// Adds one pixel. Pixels arrive in raster order, so the anchor never
    /// moves. `west`/`nw`/`north`/`ne` are the four already-scanned
    /// foreground neighbours of `(r, c)`: each shared 4-edge removes one
    /// boundary edge from *both* endpoints (perimeter), and the pixel's
    /// Euler contribution counts only the vertices/edges of its closed
    /// unit square that no earlier pixel created:
    /// `Δχ = ΔV − ΔE + 1 = 1 + north − (west|nw|north) − (north|ne)`.
    /// Every shared vertex/edge joins 8-adjacent pixels, so attributing
    /// the delta to this pixel's open component keeps per-component sums
    /// exact across merges.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, west: bool, nw: bool, north: bool, ne: bool) {
        self.area += 1;
        self.min_r = self.min_r.min(r);
        self.min_c = self.min_c.min(c);
        self.max_r = self.max_r.max(r);
        self.max_c = self.max_c.max(c);
        self.sum_r += r as f64;
        self.sum_c += c as f64;
        self.perimeter += 4 - 2 * (u64::from(west) + u64::from(north));
        self.euler +=
            1 + i64::from(north) - i64::from(west || nw || north) - i64::from(north || ne);
    }

    /// Folds another accumulator in (two open components discovered to be
    /// one). Keeps the raster-smaller anchor; the caller resolves the
    /// surviving `gid`. Perimeters and Euler characteristics sum exactly:
    /// every boundary edge / vertex / face was counted once globally, at
    /// the raster-first pixel incident to it, and any sharing between the
    /// two halves involves 8-adjacent pixels — which always end up in the
    /// same merged component.
    pub fn merge_with(&mut self, other: &Accum) {
        self.area += other.area;
        self.min_r = self.min_r.min(other.min_r);
        self.min_c = self.min_c.min(other.min_c);
        self.max_r = self.max_r.max(other.max_r);
        self.max_c = self.max_c.max(other.max_c);
        self.sum_r += other.sum_r;
        self.sum_c += other.sum_c;
        self.anchor = self.anchor.min(other.anchor);
        self.perimeter += other.perimeter;
        self.euler += other.euler;
    }

    /// True for the unused-slot sentinel.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.area == 0
    }

    /// Finishes the accumulator into an emitted record. A connected
    /// component's Euler characteristic is `1 − holes`, so the hole count
    /// falls out of the fold.
    pub fn into_record(self) -> ComponentRecord {
        debug_assert!(self.area > 0 && self.gid > 0);
        debug_assert!(self.euler <= 1, "connected component has χ ≤ 1");
        ComponentRecord {
            id: self.gid,
            area: self.area,
            bbox: (self.min_r, self.min_c, self.max_r, self.max_c),
            centroid: (self.sum_r / self.area as f64, self.sum_c / self.area as f64),
            anchor: self.anchor,
            perimeter: self.perimeter,
            holes: (1 - self.euler).max(0) as u64,
        }
    }
}

/// The fused path's fold: [`Accum::EMPTY`] is the identity, non-empty
/// accumulators combine with [`Accum::merge_with`], and the surviving
/// stream id is the smaller non-zero `gid` (fresh partials carry 0 until
/// the merge stage assigns ids, so a carried component's id always
/// wins). Commutative and associative — `tests/proptest_accum.rs` checks
/// fold-order independence across all 15 synthetic generators.
impl Foldable for Accum {
    const EMPTY: Accum = Accum::EMPTY;

    #[inline]
    fn fold(&mut self, other: &Accum) {
        if other.area == 0 {
            return;
        }
        if self.area == 0 {
            *self = *other;
            return;
        }
        let gid = match (self.gid, other.gid) {
            (0, g) | (g, 0) => g,
            (a, b) => a.min(b),
        };
        self.merge_with(other);
        self.gid = gid;
    }
}

/// Receives every component exactly once, when it closes. Emission order
/// is deterministic: ascending id within each band, bands in stream order.
pub trait ComponentSink {
    /// Called once per finalized component.
    fn component(&mut self, record: &ComponentRecord);
}

/// Collect-everything sink.
impl ComponentSink for Vec<ComponentRecord> {
    fn component(&mut self, record: &ComponentRecord) {
        self.push(record.clone());
    }
}

/// Discards records, keeping only a count — for benchmarks measuring pure
/// labeling throughput.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountComponents {
    /// Number of components seen so far.
    pub count: u64,
}

impl ComponentSink for CountComponents {
    fn component(&mut self, _record: &ComponentRecord) {
        self.count += 1;
    }
}

/// Receives labeled strips for callers who *do* want label output.
///
/// Strip pixels hold [`ComponentId`]s (0 = background) as known at
/// emission time. A component open across strips may later merge with
/// another; [`LabelSink::merge`] reports every such event (before the
/// band's strip), so a consumer that union-finds the merge pairs obtains
/// the exact final partition. Components that close within the emitted
/// strip already carry their final id.
pub trait LabelSink {
    /// Two previously emitted ids turned out to be one component; `kept`
    /// (the smaller) survives.
    fn merge(&mut self, kept: ComponentId, absorbed: ComponentId);

    /// One band's labels, row-major, `width` columns, starting at global
    /// row `first_row`.
    fn strip(&mut self, first_row: usize, width: usize, gids: &[ComponentId]);
}

/// Reference [`LabelSink`]: buffers every strip and merge event, then
/// reconciles them into a [`LabelImage`] (for tests, examples and callers
/// with memory to spare — it holds the whole image, unlike the labeler).
#[derive(Debug, Default)]
pub struct CollectLabelImage {
    width: usize,
    gids: Vec<ComponentId>,
    merges: Vec<(ComponentId, ComponentId)>,
}

impl LabelSink for CollectLabelImage {
    fn merge(&mut self, kept: ComponentId, absorbed: ComponentId) {
        self.merges.push((kept, absorbed));
    }

    fn strip(&mut self, first_row: usize, width: usize, gids: &[ComponentId]) {
        debug_assert_eq!(first_row * width, self.gids.len(), "strips in order");
        self.width = width;
        self.gids.extend_from_slice(gids);
    }
}

impl CollectLabelImage {
    /// Applies the recorded merges and renumbers components canonically
    /// (consecutive `1..=k` by raster order of first pixel), yielding a
    /// label image comparable to the whole-image labelers via
    /// [`LabelImage::canonicalized`].
    pub fn into_label_image(self) -> LabelImage {
        use std::collections::HashMap;
        // Union-find over the sparse id space; merges always keep the
        // smaller id, so pointing absorbed -> kept terminates.
        let mut parent: HashMap<ComponentId, ComponentId> = HashMap::new();
        for &(kept, absorbed) in &self.merges {
            parent.insert(absorbed, kept);
        }
        let resolve = |mut id: ComponentId, parent: &HashMap<ComponentId, ComponentId>| {
            while let Some(&p) = parent.get(&id) {
                id = p;
            }
            id
        };
        let mut remap: HashMap<ComponentId, u32> = HashMap::new();
        let mut next = 0u32;
        let labels: Vec<u32> = self
            .gids
            .iter()
            .map(|&g| {
                if g == 0 {
                    0
                } else {
                    let root = resolve(g, &parent);
                    *remap.entry(root).or_insert_with(|| {
                        next += 1;
                        next
                    })
                }
            })
            .collect();
        let height = labels.len().checked_div(self.width).unwrap_or(0);
        LabelImage::from_raw(self.width, height, labels, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_tracks_bbox_centroid_anchor_perimeter() {
        // L-tromino at (2,3) (2,4) (3,3): perimeter 8, no hole
        let mut a = Accum::first(2, 3);
        a.add(2, 4, true, false, false, false);
        a.add(3, 3, false, false, true, true);
        assert_eq!(a.area, 3);
        assert_eq!((a.min_r, a.min_c, a.max_r, a.max_c), (2, 3, 3, 4));
        assert_eq!(a.anchor, (2, 3));
        assert_eq!(a.perimeter, 8);
        assert_eq!(a.euler, 1);
        a.gid = 1;
        let rec = a.into_record();
        assert!((rec.centroid.0 - 7.0 / 3.0).abs() < 1e-12);
        assert!((rec.centroid.1 - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(rec.perimeter, 8);
        assert_eq!(rec.holes, 0);
    }

    #[test]
    fn merge_keeps_raster_smaller_anchor_and_sums_perimeter() {
        let mut a = Accum::first(5, 1);
        let b = Accum::first(2, 9);
        a.merge_with(&b);
        assert_eq!(a.anchor, (2, 9));
        assert_eq!(a.area, 2);
        assert_eq!((a.min_r, a.max_r), (2, 5));
        assert_eq!(a.perimeter, 8);
        assert_eq!(a.euler, 2);
    }

    #[test]
    fn euler_fold_counts_ring_hole() {
        // 3x3 ring: add pixels in raster order with their already-scanned
        // neighbours; χ ends at 0, so exactly one hole.
        let mut a = Accum::first(0, 0);
        a.add(0, 1, true, false, false, false);
        a.add(0, 2, true, false, false, false);
        a.add(1, 0, false, false, true, true);
        a.add(1, 2, false, true, true, false);
        a.add(2, 0, false, false, true, false);
        a.add(2, 1, true, true, false, true);
        a.add(2, 2, true, false, true, false);
        assert_eq!(a.euler, 0);
        a.gid = 1;
        assert_eq!(a.into_record().holes, 1);
    }

    #[test]
    fn pixel_unit_matches_add_and_first() {
        assert_eq!(
            format!("{:?}", Accum::pixel(3, 4, false, false, false, false)),
            format!("{:?}", Accum::first(3, 4))
        );
        // folding pixel units in raster order reproduces first + add
        let mut seq = Accum::first(2, 3);
        seq.add(2, 4, true, false, false, false);
        seq.add(3, 3, false, false, true, true);
        let mut folded = Accum::EMPTY;
        folded.fold(&Accum::pixel(2, 3, false, false, false, false));
        folded.fold(&Accum::pixel(2, 4, true, false, false, false));
        folded.fold(&Accum::pixel(3, 3, false, false, true, true));
        assert_eq!(format!("{seq:?}"), format!("{folded:?}"));
    }

    #[test]
    fn absorb_out_of_raster_order_keeps_raster_anchor() {
        let mut a = Accum::EMPTY;
        a.absorb(5, 2, false, false, false, false);
        a.absorb(1, 7, false, false, false, false); // raster-earlier pixel later
        assert_eq!(a.anchor, (1, 7));
        assert_eq!(a.area, 2);
        assert_eq!((a.min_r, a.min_c, a.max_r, a.max_c), (1, 2, 5, 7));
    }

    #[test]
    fn fold_keeps_smaller_nonzero_gid_and_empty_is_identity() {
        let mut a = Accum::first(0, 0);
        a.gid = 9;
        let mut b = Accum::first(1, 1);
        b.gid = 4;
        a.fold(&b);
        assert_eq!(a.gid, 4);
        assert_eq!(a.area, 2);
        let mut c = Accum::first(2, 2); // fresh partial, gid 0
        c.fold(&a);
        assert_eq!(c.gid, 4);
        let before = format!("{c:?}");
        c.fold(&Accum::EMPTY);
        assert_eq!(format!("{c:?}"), before);
        let mut e = Accum::EMPTY;
        e.fold(&c);
        assert_eq!(format!("{e:?}"), before);
    }

    #[test]
    fn vec_sink_collects() {
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut a = Accum::first(0, 0);
        a.gid = 7;
        sink.component(&a.into_record());
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].id, 7);
    }

    #[test]
    fn collect_label_image_applies_merges() {
        let mut sink = CollectLabelImage::default();
        sink.strip(0, 3, &[1, 0, 2]);
        sink.merge(1, 2);
        sink.strip(1, 3, &[1, 1, 2]);
        let li = sink.into_label_image();
        assert_eq!(li.num_components(), 1);
        assert_eq!(li.as_slice(), &[1, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn collect_label_image_chained_merges() {
        let mut sink = CollectLabelImage::default();
        sink.strip(0, 5, &[1, 0, 2, 0, 3]);
        sink.merge(2, 3);
        sink.merge(1, 2);
        sink.strip(1, 5, &[0, 1, 0, 0, 0]);
        let li = sink.into_label_image();
        assert_eq!(li.num_components(), 1);
    }

    #[test]
    fn empty_collect_label_image() {
        let li = CollectLabelImage::default().into_label_image();
        assert_eq!(li.num_components(), 0);
        assert_eq!((li.width(), li.height()), (0, 0));
    }
}
