//! [`StripLabeler`] — the bounded-memory streaming two-pass engine.
//!
//! PAREMSP's structure (disjoint provisional-label ranges per row chunk,
//! boundary rows merged afterwards) is exactly what out-of-core labeling
//! needs: treat every arriving band as a chunk, merge its first row
//! against the *carried* last row of the previous band, and throw the
//! band away. The only state that crosses bands is
//!
//! * one boundary row of labels (the **carry row**),
//! * one [`Accum`](crate::analysis) per component still *open* on that
//!   row (area, bbox, centroid sums, anchor, perimeter, id),
//!
//! so the resident footprint is O(band + open components), independent of
//! image height. Label slots are recycled: after each band, the provisional
//! label space is compacted to `1..=k` active ids (components with a pixel
//! on the carry row) and everything else is retired — closed components
//! are emitted through [`ComponentSink`] and their slots reused.
//!
//! The per-band work splits into two stages with one dependency between
//! consecutive bands:
//!
//! * **scan stage** (`scan_band`) — the two-line scan + RemSP
//!   ([`StripConfig::threads`]` == 1`) or full PAREMSP across threads
//!   within the resident band, chunk-boundary seams included. Each scan
//!   worker also builds the per-chunk **partial accumulator table** for
//!   its pixels while it scans (see [`crate::analysis`]). Carried ids are
//!   reserved by capacity (the synchronous path passes the exact
//!   open-component count, the pipelined executor the width bound
//!   [`carry_bound`](crate::merge::carry_bound)), so the stage never looks
//!   at the carry row.
//! * **merge stage** ([`CarryMerge::merge`]) — the carry seam, the
//!   per-label fold, compaction and component emission, shared with the
//!   `ccl-tiles` grid labeler: inherently sequential, because each band's
//!   carry feeds the next. The strip labeler only adds its own output,
//!   the labeled strip.

use std::ops::Range;

use ccl_core::par::MergerKind;
use ccl_core::scan::{max_labels_two_line, scan_two_line, split_spans};
use ccl_image::BinaryImage;
use ccl_unionfind::{EquivalenceStore, RemSP, UnionFind};

use crate::analysis::{Accum, ComponentSink, LabelSink};
use crate::error::StreamError;
use crate::merge::{BandUf, CarryMerge, MergedRows, ScannedRows};
use crate::parallel::scan_band_parallel;

/// Configuration for [`StripLabeler`] (and, as `TileGridConfig`, for the
/// `ccl-tiles` grid labeler).
#[derive(Debug, Clone)]
pub struct StripConfig {
    /// Worker threads for the in-band scan (1 = sequential AREMSP).
    pub threads: usize,
    /// Boundary-merge implementation for the parallel mode.
    pub merger: MergerKind,
    /// Lock stripes for [`MergerKind::Locked`]; `None` = default.
    pub lock_stripes: Option<usize>,
}

impl Default for StripConfig {
    fn default() -> Self {
        StripConfig {
            threads: 1,
            merger: MergerKind::default(),
            lock_stripes: None,
        }
    }
}

impl StripConfig {
    /// Sequential in-band scanning (AREMSP per band).
    pub fn sequential() -> Self {
        StripConfig::default()
    }

    /// PAREMSP across `threads` workers within each band.
    pub fn parallel(threads: usize) -> Self {
        StripConfig {
            threads,
            ..StripConfig::default()
        }
    }

    /// Builder: replaces the boundary-merge implementation.
    pub fn with_merger(mut self, merger: MergerKind) -> Self {
        self.merger = merger;
        self
    }
}

/// Summary returned by [`StripLabeler::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Stream width in pixels.
    pub width: usize,
    /// Total rows labeled.
    pub rows: usize,
    /// Number of bands pushed.
    pub bands: usize,
    /// Total components emitted.
    pub components: u64,
    /// Maximum pixel rows resident at any point: the tallest band plus
    /// the one carried boundary row — the labeler's bounded-memory
    /// guarantee (≤ 2 bands for any band height ≥ 1).
    pub peak_resident_rows: usize,
}

/// Post-scan state of one band: the band's label buffer (row-major) plus
/// what the merge stage needs. Produced by [`scan_band`], consumed by
/// [`StripLabeler::merge_scanned_band`]; the two called back-to-back are
/// exactly [`StripLabeler::push_band`], while the pipelined executor
/// ([`crate::pipeline`]) runs them on different threads, one band apart.
pub(crate) type ScannedBand = ScannedRows<Vec<u32>>;

/// The scan stage: validates the band's width, scans it with chunk-local
/// semantics (two-line + RemSP sequentially, PAREMSP worker groups in
/// parallel mode), merges the chunk-boundary seams, and accumulates every
/// scan worker's partial table while the pixels are hot.
///
/// Everything here is independent of the carried boundary row except the
/// size of the reserved low label slots: carried ids occupy
/// `1..=carry_cap`, band labels start at `carry_cap + 1`. `r0` is the
/// global row of the band's first row (partial accumulators hold global
/// coordinates).
pub(crate) fn scan_band(
    band: &BinaryImage,
    width: usize,
    cfg: &StripConfig,
    carry_cap: u32,
    r0: usize,
) -> Result<ScannedBand, StreamError> {
    if band.width() != width {
        return Err(StreamError::WidthMismatch {
            expected: width,
            got: band.width(),
        });
    }
    let (w, h) = (width, band.height());
    if h == 0 || w == 0 {
        return Ok(ScannedRows::empty(h));
    }
    let (labels, uf, partials, used) = if cfg.threads <= 1 {
        let mut store = RemSP::with_capacity(1 + carry_cap as usize + max_labels_two_line(h, w));
        for id in 0..=carry_cap {
            store.new_label(id);
        }
        let mut labels = vec![0u32; h * w];
        let next = scan_two_line(band, 0..h, &mut labels, &mut store, carry_cap + 1);
        let mut parts = vec![Accum::EMPTY; next as usize];
        accumulate_chunk(band, &labels, 0..h, r0, 0, &mut parts);
        let used = std::iter::once(carry_cap + 1..next).collect();
        (labels, BandUf::Seq(store), parts, used)
    } else {
        let (labels, parents, parts, used) = scan_band_parallel(band, r0, carry_cap, cfg);
        (labels, BandUf::Par(parents), parts, used)
    };
    Ok(ScannedRows {
        h,
        top: labels[..w].to_vec(),
        last: labels[(h - 1) * w..].to_vec(),
        labels,
        uf,
        partials,
        used,
    })
}

/// Accumulates one scan worker's partial table: every foreground pixel
/// of band rows `rows` (the worker's chunk) folds its single-pixel
/// accumulator into `parts[label - base]`. Neighbour probes read the raw
/// band pixels — rows above the chunk included — so the result never
/// depends on another chunk's label buffer, which may not exist yet. The
/// band's global first row is always skipped: its upper neighbours are
/// the carry row, which the merge stage absorbs in O(width).
pub(crate) fn accumulate_chunk(
    band: &BinaryImage,
    chunk_labels: &[u32],
    rows: Range<usize>,
    r0: usize,
    base: u32,
    parts: &mut [Accum],
) {
    let w = band.width();
    for br in rows.start.max(1)..rows.end {
        let lr = br - rows.start;
        let row_labels = &chunk_labels[lr * w..(lr + 1) * w];
        let cur = band.row(br);
        let up = band.row(br - 1);
        for c in 0..w {
            let l = row_labels[c];
            if l == 0 {
                continue;
            }
            let west = c > 0 && cur[c - 1] == 1;
            let nw = c > 0 && up[c - 1] == 1;
            let north = up[c] == 1;
            let ne = c + 1 < w && up[c + 1] == 1;
            parts[(l - base) as usize].absorb(r0 + br, c, west, nw, north, ne);
        }
    }
}

/// The streaming two-pass labeling engine. See the module docs.
///
/// ```
/// use ccl_image::BinaryImage;
/// use ccl_stream::{ComponentRecord, StripLabeler};
///
/// let top = BinaryImage::parse("##.. ....");
/// let bottom = BinaryImage::parse(".... ..##");
/// let mut sink: Vec<ComponentRecord> = Vec::new();
/// let mut labeler = StripLabeler::new(4);
/// labeler.push_band(&top, &mut sink).unwrap();
/// labeler.push_band(&bottom, &mut sink).unwrap();
/// let stats = labeler.finish(&mut sink);
/// assert_eq!(stats.components, 2);
/// assert_eq!(sink[0].bbox, (0, 0, 0, 1));
/// assert_eq!(sink[1].bbox, (3, 2, 3, 3));
/// ```
pub struct StripLabeler {
    merge: CarryMerge,
}

impl StripLabeler {
    /// Sequential labeler for a stream of the given width.
    pub fn new(width: usize) -> Self {
        Self::with_config(width, StripConfig::default())
    }

    /// Labeler with explicit configuration.
    pub fn with_config(width: usize, cfg: StripConfig) -> Self {
        StripLabeler {
            merge: CarryMerge::new(width, cfg),
        }
    }

    /// Stream width in pixels.
    pub fn width(&self) -> usize {
        self.merge.width()
    }

    /// Rows labeled so far.
    pub fn rows_pushed(&self) -> usize {
        self.merge.rows_done()
    }

    /// Bands pushed so far.
    pub fn bands_pushed(&self) -> usize {
        self.merge.bands_done()
    }

    /// Components currently open (touching the carry row).
    pub fn open_components(&self) -> usize {
        self.merge.open_components()
    }

    /// Components emitted so far.
    pub fn finalized_components(&self) -> u64 {
        self.merge.finalized_components()
    }

    /// Maximum pixel rows resident at any point so far (tallest band + 1
    /// carry row). This is the bounded-memory invariant: it never exceeds
    /// twice the band height, however tall the streamed image grows.
    pub fn peak_resident_rows(&self) -> usize {
        self.merge.peak_resident_rows()
    }

    /// Labels the next band of rows, emitting every component that closes.
    pub fn push_band<C: ComponentSink>(
        &mut self,
        band: &BinaryImage,
        components: &mut C,
    ) -> Result<(), StreamError> {
        self.process(band, components, None)
    }

    /// Like [`Self::push_band`], additionally emitting the band's labeled
    /// strip (and any id merges) through `labels`.
    pub fn push_band_with_labels<C: ComponentSink, L: LabelSink>(
        &mut self,
        band: &BinaryImage,
        components: &mut C,
        labels: &mut L,
    ) -> Result<(), StreamError> {
        self.process(band, components, Some(labels))
    }

    /// Closes the stream: every still-open component is finalized and
    /// emitted (ascending id), and the run's summary returned.
    pub fn finish<C: ComponentSink + ?Sized>(self, components: &mut C) -> StreamStats {
        self.merge.finish(components)
    }

    fn process(
        &mut self,
        band: &BinaryImage,
        components: &mut dyn ComponentSink,
        strips: Option<&mut dyn LabelSink>,
    ) -> Result<(), StreamError> {
        let m = &self.merge;
        let carry_cap = m.open_components() as u32;
        let scanned = scan_band(band, m.width(), m.config(), carry_cap, m.rows_done())?;
        self.merge_scanned_band(scanned, components, strips);
        Ok(())
    }

    /// The merge stage ([`CarryMerge::merge`]) plus the labeled strip.
    /// Counterpart of [`scan_band`].
    pub(crate) fn merge_scanned_band(
        &mut self,
        band: ScannedBand,
        components: &mut dyn ComponentSink,
        strips: Option<&mut dyn LabelSink>,
    ) {
        let merged = self.merge.merge(band, components, strips.is_some());
        if let (Some(sink), Some(out)) = (strips, merged) {
            for &(kept, absorbed) in &out.merges {
                sink.merge(kept, absorbed);
            }
            let gids = strip_gids(&out, self.merge.config().threads);
            sink.strip(out.first_row, self.merge.width(), &gids);
        }
    }
}

/// A merged band's labels as stream ids, filled over element spans
/// across `threads` workers.
fn strip_gids(out: &MergedRows<Vec<u32>>, threads: usize) -> Vec<u64> {
    let mut gids = vec![0u64; out.labels.len()];
    let fill = |span: Range<usize>, dst: &mut [u64]| {
        for (g, &l) in dst.iter_mut().zip(&out.labels[span]) {
            if l != 0 {
                *g = out.gid(l);
            }
        }
    };
    if threads <= 1 {
        fill(0..gids.len(), &mut gids);
        return gids;
    }
    rayon::scope(|s| {
        let mut rest: &mut [u64] = &mut gids;
        for span in split_spans(out.labels.len(), threads) {
            let (mine, tail) = rest.split_at_mut(span.len());
            rest = tail;
            s.spawn(move |_| fill(span, mine));
        }
    });
    gids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{CollectLabelImage, ComponentRecord, CountComponents};

    fn run_banded(
        img: &BinaryImage,
        band_h: usize,
        cfg: StripConfig,
    ) -> (Vec<ComponentRecord>, StreamStats) {
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut labeler = StripLabeler::with_config(img.width(), cfg);
        let mut r = 0;
        while r < img.height() {
            let rows = band_h.min(img.height() - r);
            let band = img.crop(r, 0, img.width(), rows);
            labeler.push_band(&band, &mut sink).unwrap();
            r += rows;
        }
        let stats = labeler.finish(&mut sink);
        (sink, stats)
    }

    #[test]
    fn single_band_matches_whole_image_analysis() {
        let img = BinaryImage::parse(
            "##..
             ##..
             ...#",
        );
        let (recs, stats) = run_banded(&img, 3, StripConfig::default());
        assert_eq!(stats.components, 2);
        assert_eq!(recs[0].area, 4);
        assert_eq!(recs[0].bbox, (0, 0, 1, 1));
        assert_eq!(recs[0].anchor, (0, 0));
        assert_eq!(recs[1].area, 1);
        assert_eq!(recs[1].bbox, (2, 3, 2, 3));
    }

    #[test]
    fn component_spanning_every_band_boundary() {
        // vertical line through 8 rows, bands of 2
        let img = BinaryImage::from_fn(5, 8, |_, c| c == 2);
        for band_h in 1..=8 {
            let (recs, stats) = run_banded(&img, band_h, StripConfig::default());
            assert_eq!(stats.components, 1, "band height {band_h}");
            assert_eq!(recs[0].area, 8);
            assert_eq!(recs[0].bbox, (0, 2, 7, 2));
            assert!((recs[0].centroid.0 - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn u_shape_merges_across_bands_and_keeps_older_id() {
        // two arms that join only in the last row
        let img = BinaryImage::parse(
            "#.#
             #.#
             #.#
             ###",
        );
        for band_h in 1..=4 {
            let (recs, stats) = run_banded(&img, band_h, StripConfig::default());
            assert_eq!(stats.components, 1, "band height {band_h}");
            assert_eq!(recs[0].id, 1, "older id survives");
            assert_eq!(recs[0].area, 9);
            assert_eq!(recs[0].bbox, (0, 0, 3, 2));
        }
    }

    #[test]
    fn components_close_as_soon_as_possible() {
        let img = BinaryImage::parse(
            "##..
             ....
             ..##
             ....",
        );
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut labeler = StripLabeler::new(4);
        labeler.push_band(&img.crop(0, 0, 4, 2), &mut sink).unwrap();
        // first component closed already: no pixel on row 1
        assert_eq!(sink.len(), 1);
        assert_eq!(labeler.open_components(), 0);
        labeler.push_band(&img.crop(2, 0, 4, 2), &mut sink).unwrap();
        assert_eq!(sink.len(), 2);
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 2);
        assert_eq!(sink[1].bbox, (2, 2, 2, 3));
    }

    #[test]
    fn label_slots_are_recycled() {
        // many short-lived components: active set stays tiny
        let img = BinaryImage::from_fn(64, 64, |r, _| r % 2 == 0);
        let mut sink = CountComponents::default();
        let mut labeler = StripLabeler::new(64);
        for r in (0..64).step_by(2) {
            labeler
                .push_band(&img.crop(r, 0, 64, 2), &mut sink)
                .unwrap();
            assert!(labeler.open_components() <= 1, "row {r}");
        }
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 32);
        assert_eq!(sink.count, 32);
    }

    #[test]
    fn bounded_memory_invariant() {
        let img = BinaryImage::from_fn(16, 256, |r, c| (r + c) % 3 != 0);
        let (_, stats) = run_banded(&img, 8, StripConfig::default());
        assert!(stats.peak_resident_rows <= 2 * 8);
        assert_eq!(stats.peak_resident_rows, 9); // 8-row band + carry row
        assert_eq!(stats.rows, 256);
        assert_eq!(stats.bands, 32);
    }

    #[test]
    fn band_height_invariance_on_random_images() {
        let mut state = 7u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        let img = BinaryImage::from_fn(23, 31, |_, _| rnd());
        let (reference, _) = run_banded(&img, 31, StripConfig::default());
        let mut sorted_ref = reference.clone();
        sorted_ref.sort_by_key(|r| r.anchor);
        for band_h in [1, 2, 3, 5, 8, 13, 30] {
            let (mut recs, _) = run_banded(&img, band_h, StripConfig::default());
            recs.sort_by_key(|r| r.anchor);
            let strip: Vec<_> = recs
                .iter()
                .map(|r| (r.anchor, r.area, r.bbox, r.centroid))
                .collect();
            let whole: Vec<_> = sorted_ref
                .iter()
                .map(|r| (r.anchor, r.area, r.bbox, r.centroid))
                .collect();
            assert_eq!(strip, whole, "band height {band_h}");
        }
    }

    #[test]
    fn parallel_mode_is_bit_identical_to_sequential() {
        let mut state = 99u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        let img = BinaryImage::from_fn(40, 57, |_, _| rnd());
        let (seq, seq_stats) = run_banded(&img, 9, StripConfig::sequential());
        for threads in [2, 3, 8] {
            for merger in MergerKind::ALL {
                let cfg = StripConfig::parallel(threads).with_merger(merger);
                let (par, par_stats) = run_banded(&img, 9, cfg);
                assert_eq!(par, seq, "{threads} threads, {merger}");
                assert_eq!(par_stats, seq_stats);
            }
        }
    }

    #[test]
    fn strips_reconcile_into_the_exact_partition() {
        let img = BinaryImage::parse(
            "#.#.#
             #.#.#
             #####
             .....
             ##.##",
        );
        let mut comps = CountComponents::default();
        let mut strips = CollectLabelImage::default();
        let mut labeler = StripLabeler::new(5);
        for r in 0..img.height() {
            labeler
                .push_band_with_labels(&img.crop(r, 0, 5, 1), &mut comps, &mut strips)
                .unwrap();
        }
        let stats = labeler.finish(&mut comps);
        let li = strips.into_label_image();
        assert_eq!(li.num_components() as u64, stats.components);
        let reference = ccl_core::seq::aremsp(&img);
        assert!(ccl_core::verify::labelings_equivalent(&li, &reference));
    }

    #[test]
    fn strip_output_identical_across_thread_counts() {
        let mut state = 5u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        let img = BinaryImage::from_fn(19, 23, |_, _| rnd());

        #[derive(Default, PartialEq, Debug)]
        struct Tape {
            events: Vec<(u64, u64)>,
            strips: Vec<(usize, Vec<u64>)>,
        }
        impl LabelSink for Tape {
            fn merge(&mut self, kept: u64, absorbed: u64) {
                self.events.push((kept, absorbed));
            }
            fn strip(&mut self, first_row: usize, _w: usize, gids: &[u64]) {
                self.strips.push((first_row, gids.to_vec()));
            }
        }

        let mut tapes = Vec::new();
        for threads in [1, 3] {
            let mut comps = CountComponents::default();
            let mut tape = Tape::default();
            let mut labeler =
                StripLabeler::with_config(img.width(), StripConfig::parallel(threads));
            let mut r = 0;
            while r < img.height() {
                let rows = 4.min(img.height() - r);
                labeler
                    .push_band_with_labels(
                        &img.crop(r, 0, img.width(), rows),
                        &mut comps,
                        &mut tape,
                    )
                    .unwrap();
                r += rows;
            }
            labeler.finish(&mut comps);
            tapes.push(tape);
        }
        assert!(
            !tapes[0].events.is_empty(),
            "the image exercises carried merges"
        );
        assert_eq!(tapes[0], tapes[1]);
    }

    #[test]
    fn width_mismatch_is_reported() {
        let mut labeler = StripLabeler::new(4);
        let mut sink = CountComponents::default();
        let err = labeler
            .push_band(&BinaryImage::zeros(3, 2), &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            StreamError::WidthMismatch {
                expected: 4,
                got: 3
            }
        ));
    }

    #[test]
    fn empty_and_degenerate_streams() {
        let mut sink = CountComponents::default();
        let stats = StripLabeler::new(8).finish(&mut sink);
        assert_eq!(stats.components, 0);
        assert_eq!(stats.rows, 0);

        // zero-width stream
        let mut labeler = StripLabeler::new(0);
        labeler
            .push_band(&BinaryImage::zeros(0, 5), &mut sink)
            .unwrap();
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 0);
        assert_eq!(stats.rows, 5);
    }

    #[test]
    fn all_background_band_closes_everything() {
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut labeler = StripLabeler::new(3);
        labeler
            .push_band(&BinaryImage::ones(3, 2), &mut sink)
            .unwrap();
        assert_eq!(labeler.open_components(), 1);
        labeler
            .push_band(&BinaryImage::zeros(3, 2), &mut sink)
            .unwrap();
        assert_eq!(labeler.open_components(), 0);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].area, 6);
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 1);
    }

    /// Brute-force 4-neighbourhood perimeter of the whole image's single
    /// component set, keyed by anchor, for comparison with the streamed
    /// fold.
    fn brute_perimeters(img: &BinaryImage) -> std::collections::HashMap<(usize, usize), u64> {
        let labels = ccl_core::seq::aremsp(img);
        let mut per: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let mut anchor: std::collections::HashMap<u32, (usize, usize)> =
            std::collections::HashMap::new();
        for r in 0..img.height() {
            for c in 0..img.width() {
                let l = labels.get(r, c);
                if l == 0 {
                    continue;
                }
                anchor.entry(l).or_insert((r, c));
                let edges = [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)]
                    .iter()
                    .filter(|&&(dr, dc)| img.get_or_bg(r as isize + dr, c as isize + dc) == 0)
                    .count() as u64;
                *per.entry(l).or_insert(0) += edges;
            }
        }
        per.into_iter().map(|(l, p)| (anchor[&l], p)).collect()
    }

    #[test]
    fn perimeter_matches_brute_force_across_band_heights() {
        let mut state = 41u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) & 3 != 0
        };
        let img = BinaryImage::from_fn(19, 27, |_, _| rnd());
        let expected = brute_perimeters(&img);
        for band_h in [1, 2, 3, 5, 9, 27] {
            let (recs, _) = run_banded(&img, band_h, StripConfig::default());
            assert_eq!(recs.len(), expected.len(), "band height {band_h}");
            for rec in &recs {
                assert_eq!(
                    rec.perimeter, expected[&rec.anchor],
                    "band height {band_h}, anchor {:?}",
                    rec.anchor
                );
            }
        }
    }

    #[test]
    fn perimeter_of_known_shapes() {
        // 3x3 solid square: perimeter 12; plus ring with hole: the hole's
        // inner edges count too.
        let square = BinaryImage::parse("### ### ###");
        let (recs, _) = run_banded(&square, 1, StripConfig::default());
        assert_eq!(recs[0].perimeter, 12);
        assert_eq!(recs[0].holes, 0);
        let ring = BinaryImage::parse(
            "###
             #.#
             ###",
        );
        let (recs, _) = run_banded(&ring, 2, StripConfig::default());
        assert_eq!(recs[0].perimeter, 12 + 4);
        assert_eq!(recs[0].holes, 1);
        let lone = BinaryImage::parse("#");
        let (recs, _) = run_banded(&lone, 1, StripConfig::default());
        assert_eq!(recs[0].perimeter, 4);
        assert_eq!(recs[0].holes, 0);
    }

    #[test]
    fn holes_match_brute_force_across_band_heights() {
        // a figure-eight (two holes), a diagonal-gap ring (the pinched
        // hole still counts: 4-connected background, 8-connected
        // foreground), and a solid block inside a ring
        for picture in [
            "#####
             #.#.#
             #####",
            ".##
             #.#
             ##.",
            "#####
             #...#
             #.#.#
             #...#
             #####",
        ] {
            let img = BinaryImage::parse(picture);
            let expected =
                ccl_core::analysis::count_holes(&img, ccl_image::Connectivity::Eight) as u64;
            for band_h in 1..=img.height() {
                let (recs, _) = run_banded(&img, band_h, StripConfig::default());
                let total: u64 = recs.iter().map(|r| r.holes).sum();
                assert_eq!(total, expected, "band height {band_h}: {picture}");
            }
        }
    }

    #[test]
    fn ids_are_never_reused_across_closures() {
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut labeler = StripLabeler::new(2);
        for _ in 0..5 {
            labeler
                .push_band(&BinaryImage::ones(2, 1), &mut sink)
                .unwrap();
            labeler
                .push_band(&BinaryImage::zeros(2, 1), &mut sink)
                .unwrap();
        }
        labeler.finish(&mut sink);
        let ids: Vec<u64> = sink.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }
}
