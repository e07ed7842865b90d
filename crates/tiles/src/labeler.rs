//! [`TileGridLabeler`] — the bounded-memory 2-D tile-grid engine.
//!
//! PAREMSP's chunk-scan + boundary-merge structure generalizes from row
//! bands to a full tile grid. Every tile row goes through the two stages
//! `ccl-stream` shares between strips and tiles:
//!
//! * the **scan stage** ([`scan_tile_row`]) — every tile scanned
//!   independently with disjoint provisional-label ranges (tiles cut into
//!   row chunks when there are fewer tiles than threads), the vertical
//!   seams between adjacent tiles merged as strided columns directly over
//!   the per-tile label buffers, and the partial accumulator tables built
//!   by the scan workers;
//! * the **merge stage** ([`ccl_stream::merge`]) — the horizontal seam
//!   against the carried last pixel row of the previous tile row, the
//!   fold, compaction and component emission.
//!
//! After each row the label space is compacted to the components still
//! *open* on the carry boundary and every retired slot is recycled, so
//! resident state is
//!
//! * one tile row of pixels and labels,
//! * one carry row (`width` labels),
//! * one [`Accum`](ccl_stream::Accum) per open component,
//!
//! i.e. **at most two tile rows** of pixel-equivalent memory, independent
//! of image height — and independent of image *width* mattering only
//! linearly (the carry row), never quadratically. The grid labeler keeps
//! only the shape validation and its own output, the per-tile id buffers.

use ccl_image::BinaryImage;
use ccl_stream::merge::{CarryMerge, ScannedRows};
use ccl_stream::scan::{scan_tile_row, TileLabels};
use ccl_stream::{ComponentSink, StreamStats, StripConfig};

use crate::error::TilesError;
use crate::sink::{TileMeta, TileSink};

/// Configuration for [`TileGridLabeler`]: the strip labeler's, with
/// `threads` workers scanning the tiles of each row.
pub type TileGridConfig = StripConfig;

/// Summary returned by [`TileGridLabeler::finish`]. Mirrors
/// [`StreamStats`] with the grid-specific tile counters added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGridStats {
    /// Grid width in pixels.
    pub width: usize,
    /// Total pixel rows labeled.
    pub rows: usize,
    /// Number of tile rows pushed.
    pub tile_rows: usize,
    /// Total tiles labeled.
    pub tiles: usize,
    /// Total components emitted.
    pub components: u64,
    /// Maximum pixel rows resident at any point: the tallest tile row
    /// plus the one carried boundary row — the ≤ 2-tile-row bound.
    pub peak_resident_rows: usize,
}

impl TileGridStats {
    /// The stats viewed as the equivalent row-band stream summary.
    pub fn as_stream_stats(&self) -> StreamStats {
        StreamStats {
            width: self.width,
            rows: self.rows,
            bands: self.tile_rows,
            components: self.components,
            peak_resident_rows: self.peak_resident_rows,
        }
    }
}

/// The tile-grid two-pass labeling engine. See the module docs.
///
/// ```
/// use ccl_image::BinaryImage;
/// use ccl_stream::ComponentRecord;
/// use ccl_tiles::TileGridLabeler;
///
/// // one component crossing both the vertical and horizontal seams
/// let tl = BinaryImage::parse(".. .#");
/// let tr = BinaryImage::parse(".. #.");
/// let bl = BinaryImage::parse(".# ..");
/// let br = BinaryImage::parse("#. ..");
/// let mut sink: Vec<ComponentRecord> = Vec::new();
/// let mut labeler = TileGridLabeler::new(4);
/// labeler.push_tile_row(&[tl, tr], &mut sink).unwrap();
/// labeler.push_tile_row(&[bl, br], &mut sink).unwrap();
/// let stats = labeler.finish(&mut sink);
/// assert_eq!(stats.components, 1);
/// assert_eq!(sink[0].area, 4);
/// ```
pub struct TileGridLabeler {
    merge: CarryMerge,
    tiles_done: usize,
}

impl TileGridLabeler {
    /// Sequential labeler for a grid of the given total width.
    pub fn new(width: usize) -> Self {
        Self::with_config(width, TileGridConfig::default())
    }

    /// Labeler with explicit configuration.
    pub fn with_config(width: usize, cfg: TileGridConfig) -> Self {
        TileGridLabeler {
            merge: CarryMerge::new(width, cfg),
            tiles_done: 0,
        }
    }

    /// Grid width in pixels.
    pub fn width(&self) -> usize {
        self.merge.width()
    }

    /// Pixel rows labeled so far.
    pub fn rows_pushed(&self) -> usize {
        self.merge.rows_done()
    }

    /// Tile rows pushed so far.
    pub fn tile_rows_pushed(&self) -> usize {
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

    /// Maximum pixel rows resident at any point so far (tallest tile row
    /// + 1 carry row) — never exceeds two tile rows.
    pub fn peak_resident_rows(&self) -> usize {
        self.merge.peak_resident_rows()
    }

    /// Labels the next tile row, emitting every component that closes.
    /// `tiles` are left-to-right; their widths must sum to the grid width
    /// and their heights must agree.
    pub fn push_tile_row<C: ComponentSink>(
        &mut self,
        tiles: &[BinaryImage],
        components: &mut C,
    ) -> Result<(), TilesError> {
        self.process(tiles, components, None)
    }

    /// Like [`Self::push_tile_row`], additionally emitting every labeled
    /// tile (and any id merges) through `sink`.
    pub fn push_tile_row_with_labels<C: ComponentSink, T: TileSink>(
        &mut self,
        tiles: &[BinaryImage],
        components: &mut C,
        sink: &mut T,
    ) -> Result<(), TilesError> {
        self.process(tiles, components, Some(sink))
    }

    /// Closes the grid: every still-open component is finalized and
    /// emitted (ascending id), and the run's summary returned.
    pub fn finish<C: ComponentSink + ?Sized>(self, components: &mut C) -> TileGridStats {
        let stats = self.merge.finish(components);
        TileGridStats {
            width: stats.width,
            rows: stats.rows,
            tile_rows: stats.bands,
            tiles: self.tiles_done,
            components: stats.components,
            peak_resident_rows: stats.peak_resident_rows,
        }
    }

    fn process(
        &mut self,
        tiles: &[BinaryImage],
        components: &mut dyn ComponentSink,
        sink: Option<&mut dyn TileSink>,
    ) -> Result<(), TilesError> {
        let m = &self.merge;
        check_tile_row(tiles, m.width())?;
        let carry_cap = m.open_components() as u32;
        let row = scan_tile_row(tiles, m.config(), carry_cap, m.rows_done());
        self.merge_scanned(row, components, sink)
    }

    /// The merge stage ([`CarryMerge::merge`]) plus the labeled tiles.
    /// Counterpart of [`scan_tile_row`]; the two called back-to-back are
    /// exactly [`Self::push_tile_row`], while the pipelined executor
    /// ([`crate::pipeline`]) runs them on different threads, one tile row
    /// apart.
    pub(crate) fn merge_scanned(
        &mut self,
        row: ScannedRows,
        components: &mut dyn ComponentSink,
        sink: Option<&mut dyn TileSink>,
    ) -> Result<(), TilesError> {
        self.tiles_done += row.labels.bufs.len();
        let merged = self.merge.merge(row, components, sink.is_some());
        let (Some(sink), Some(out)) = (sink, merged) else {
            return Ok(());
        };
        for &(kept, absorbed) in &out.merges {
            sink.merge(kept, absorbed);
        }
        let TileLabels { widths, x0s, bufs } = &out.labels;
        for (t, buf) in bufs.iter().enumerate() {
            let gids = out.gids(buf, self.merge.config().threads);
            let meta = TileMeta {
                tile_row: out.index,
                tile_col: t,
                row0: out.first_row,
                col0: x0s[t],
                width: widths[t],
                height: out.rows,
            };
            sink.tile(&meta, &gids)?;
        }
        Ok(())
    }
}

/// Rejects a tile row whose widths do not sum to the grid width or
/// whose heights disagree.
pub(crate) fn check_tile_row(tiles: &[BinaryImage], width: usize) -> Result<(), TilesError> {
    let total: usize = tiles.iter().map(BinaryImage::width).sum();
    if total != width {
        return Err(TilesError::WidthMismatch {
            expected: width,
            got: total,
        });
    }
    let th = tiles.first().map_or(0, BinaryImage::height);
    match tiles.iter().find(|t| t.height() != th) {
        Some(bad) => Err(TilesError::RaggedTileRow {
            expected: th,
            got: bad.height(),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{GridSource, TileSource};
    use ccl_stream::{ComponentRecord, CountComponents};

    /// Tiles `img` into `tile_w × tile_h` tiles and runs the grid labeler.
    fn run_tiled(
        img: &BinaryImage,
        tile_w: usize,
        tile_h: usize,
        cfg: TileGridConfig,
    ) -> (Vec<ComponentRecord>, TileGridStats) {
        let mut sink: Vec<ComponentRecord> = Vec::new();
        let mut labeler = TileGridLabeler::with_config(img.width(), cfg);
        let mut src = GridSource::from_image(img, tile_w, tile_h);
        while let Some(tiles) = src.next_tile_row().unwrap() {
            labeler.push_tile_row(&tiles, &mut sink).unwrap();
        }
        let stats = labeler.finish(&mut sink);
        (sink, stats)
    }

    #[test]
    fn single_tile_matches_strip_semantics() {
        let img = BinaryImage::parse(
            "##..
             ##..
             ...#",
        );
        let (recs, stats) = run_tiled(&img, 4, 3, TileGridConfig::default());
        assert_eq!(stats.components, 2);
        assert_eq!(recs[0].area, 4);
        assert_eq!(recs[0].bbox, (0, 0, 1, 1));
        assert_eq!(recs[1].area, 1);
    }

    #[test]
    fn component_crossing_vertical_seam() {
        let img = BinaryImage::from_fn(8, 3, |r, _| r == 1);
        for tile_w in 1..=8 {
            let (recs, stats) = run_tiled(&img, tile_w, 3, TileGridConfig::default());
            assert_eq!(stats.components, 1, "tile width {tile_w}");
            assert_eq!(recs[0].area, 8);
            assert_eq!(recs[0].bbox, (1, 0, 1, 7));
        }
    }

    #[test]
    fn diagonal_only_vertical_seam_connects() {
        // pixels at (0,1) and (1,2): tiles of width 2 split them into
        // different tiles; only the diagonal crosses the seam
        let img = BinaryImage::parse(
            ".#..
             ..#.",
        );
        let (recs, stats) = run_tiled(&img, 2, 2, TileGridConfig::default());
        assert_eq!(stats.components, 1);
        assert_eq!(recs[0].area, 2);
    }

    #[test]
    fn u_shape_across_all_four_tiles() {
        let img = BinaryImage::parse(
            "#..#
             #..#
             ####",
        );
        for (tw, th) in [(1, 1), (2, 2), (3, 2), (2, 1), (4, 3), (1, 3)] {
            let (recs, stats) = run_tiled(&img, tw, th, TileGridConfig::default());
            assert_eq!(stats.components, 1, "{tw}x{th} tiles");
            assert_eq!(recs[0].id, 1, "older id survives");
            assert_eq!(recs[0].area, 8);
        }
    }

    #[test]
    fn tile_shape_invariance_on_random_images() {
        let mut state = 3u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        let img = BinaryImage::from_fn(21, 17, |_, _| rnd());
        let (reference, _) = run_tiled(&img, 21, 17, TileGridConfig::default());
        let mut sorted_ref: Vec<_> = reference
            .iter()
            .map(|r| (r.anchor, r.area, r.bbox, r.perimeter))
            .collect();
        sorted_ref.sort_unstable();
        for (tw, th) in [(1, 1), (2, 3), (5, 5), (7, 2), (20, 16), (21, 1), (1, 17)] {
            let (recs, _) = run_tiled(&img, tw, th, TileGridConfig::default());
            let mut got: Vec<_> = recs
                .iter()
                .map(|r| (r.anchor, r.area, r.bbox, r.perimeter))
                .collect();
            got.sort_unstable();
            assert_eq!(got, sorted_ref, "{tw}x{th} tiles");
        }
    }

    #[test]
    fn parallel_mode_is_bit_identical_to_sequential() {
        let mut state = 1234u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        let img = BinaryImage::from_fn(37, 29, |_, _| rnd());
        // 7-wide tiles (6 per row) are cut into row chunks only at 8
        // threads; one 37-wide tile column is cut from 2 threads on.
        for tw in [7, 37] {
            let (seq, seq_stats) = run_tiled(&img, tw, 5, TileGridConfig::sequential());
            for threads in [2, 3, 8] {
                let (par, par_stats) = run_tiled(&img, tw, 5, TileGridConfig::parallel(threads));
                assert_eq!(par, seq, "{tw}x5 tiles, {threads} threads");
                assert_eq!(par_stats, seq_stats);
            }
        }
    }

    #[test]
    fn label_output_identical_across_thread_counts() {
        let mut state = 5u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        let img = BinaryImage::from_fn(19, 23, |_, _| rnd());

        /// Every label-output event, in emission order.
        #[derive(Default, PartialEq, Debug)]
        struct Tape {
            merges: Vec<(u64, u64)>,
            tiles: Vec<(TileMeta, Vec<u64>)>,
        }
        impl TileSink for Tape {
            fn merge(&mut self, kept: u64, absorbed: u64) {
                self.merges.push((kept, absorbed));
            }
            fn tile(&mut self, meta: &TileMeta, gids: &[u64]) -> Result<(), TilesError> {
                self.tiles.push((*meta, gids.to_vec()));
                Ok(())
            }
        }

        // one tile column (a strip in 4-row bands) and a 5x4 grid
        for tw in [img.width(), 5] {
            let tapes = [1, 3].map(|threads| {
                let mut comps = CountComponents::default();
                let mut tape = Tape::default();
                let cfg = TileGridConfig::parallel(threads);
                let mut labeler = TileGridLabeler::with_config(img.width(), cfg);
                let mut src = GridSource::from_image(&img, tw, 4);
                while let Some(tiles) = src.next_tile_row().unwrap() {
                    labeler
                        .push_tile_row_with_labels(&tiles, &mut comps, &mut tape)
                        .unwrap();
                }
                labeler.finish(&mut comps);
                tape
            });
            assert!(
                !tapes[0].merges.is_empty(),
                "{tw}-wide tiles: the image exercises carried merges"
            );
            assert_eq!(tapes[0], tapes[1], "{tw}-wide tiles");
        }
    }

    #[test]
    fn bounded_memory_invariant() {
        let img = BinaryImage::from_fn(32, 64, |r, c| (r + c) % 3 != 0);
        let (_, stats) = run_tiled(&img, 8, 8, TileGridConfig::default());
        assert_eq!(stats.peak_resident_rows, 9); // 8-row tile row + carry
        assert_eq!(stats.rows, 64);
        assert_eq!(stats.tile_rows, 8);
        assert_eq!(stats.tiles, 8 * 4);
    }

    #[test]
    fn label_slots_are_recycled() {
        let img = BinaryImage::from_fn(64, 64, |r, _| r % 2 == 0);
        let mut sink = CountComponents::default();
        let mut labeler = TileGridLabeler::new(64);
        let mut src = GridSource::from_image(&img, 16, 2);
        while let Some(tiles) = src.next_tile_row().unwrap() {
            labeler.push_tile_row(&tiles, &mut sink).unwrap();
            assert!(labeler.open_components() <= 1);
        }
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 32);
    }

    #[test]
    fn holes_match_whole_image_oracle_across_tile_shapes() {
        // figure-eight (2 holes) + a diagonal-gap ring (1 hole: bg is
        // 4-connected, foreground 8-connected)
        let img = BinaryImage::parse(
            "#####..##
             #.#.#.#.#
             #####.##.",
        );
        let expected = ccl_core::analysis::count_holes(&img, ccl_image::Connectivity::Eight) as u64;
        for (tw, th) in [(1, 1), (2, 2), (3, 1), (9, 3), (4, 2)] {
            let (recs, _) = run_tiled(&img, tw, th, TileGridConfig::default());
            let total: u64 = recs.iter().map(|r| r.holes).sum();
            assert_eq!(total, expected, "{tw}x{th} tiles");
        }
    }

    #[test]
    fn width_and_height_validation() {
        let mut labeler = TileGridLabeler::new(4);
        let mut sink = CountComponents::default();
        let err = labeler
            .push_tile_row(&[BinaryImage::zeros(3, 2)], &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            TilesError::WidthMismatch {
                expected: 4,
                got: 3
            }
        ));
        let err = labeler
            .push_tile_row(
                &[BinaryImage::zeros(2, 2), BinaryImage::zeros(2, 3)],
                &mut sink,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            TilesError::RaggedTileRow {
                expected: 2,
                got: 3
            }
        ));
    }

    #[test]
    fn empty_and_degenerate_grids() {
        let mut sink = CountComponents::default();
        let stats = TileGridLabeler::new(8).finish(&mut sink);
        assert_eq!(stats.components, 0);

        let mut labeler = TileGridLabeler::new(0);
        labeler
            .push_tile_row(&[BinaryImage::zeros(0, 5)], &mut sink)
            .unwrap();
        let stats = labeler.finish(&mut sink);
        assert_eq!(stats.components, 0);
        assert_eq!(stats.rows, 5);

        // Rows without pixels hold nothing resident, in every driver.
        let img = BinaryImage::zeros(0, 8);
        let grid = || GridSource::from_image(&img, 4, 4);
        let cfg = TileGridConfig::default;
        let sync = crate::driver::label_tiles(&mut grid(), cfg(), &mut sink).unwrap();
        let piped = crate::driver::label_tiles_pipelined(&mut grid(), cfg(), &mut sink).unwrap();
        let (_, labeled) =
            crate::driver::tiles_to_label_image_pipelined(&mut grid(), cfg()).unwrap();
        for stats in [&sync, &piped, &labeled] {
            assert_eq!((stats.rows, stats.tiles, stats.components), (8, 0, 0));
            assert_eq!(stats.peak_resident_rows, 0);
        }
    }
}
