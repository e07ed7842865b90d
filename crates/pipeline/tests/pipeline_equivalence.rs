//! Integration tests: prefetched and pipelined execution is equivalent to
//! the synchronous paths — labels and analysis bit-identical — across all
//! 15 synthetic generator families, band heights and tile shapes; and a
//! failing or panicking source behind a prefetcher surfaces a typed error
//! to the caller, never a hang.

use proptest::prelude::*;

use ccl_core::seq::aremsp;
use ccl_core::verify::labelings_equivalent;
use ccl_datasets::synth::adversarial::{
    comb, fine_checkerboard, hstripes, serpentine, spiral, vstripes,
};
use ccl_datasets::synth::blobs::{blob_field, BlobParams};
use ccl_datasets::synth::landcover::{landcover, LandcoverParams};
use ccl_datasets::synth::noise::bernoulli;
use ccl_datasets::synth::shapes::{shape_scene, text_page};
use ccl_datasets::synth::stream::bernoulli_stream;
use ccl_datasets::synth::texture::{checkerboard, grating, rings, stripes};
use ccl_image::BinaryImage;
use ccl_pipeline::{PrefetchRows, PrefetchTiles};
use ccl_stream::{
    analyze_stream, stream_to_label_image, OwnedMemorySource, RowSource, StreamError, StripConfig,
};
use ccl_tiles::{
    analyze_tiles, analyze_tiles_pipelined, tiles_to_label_image_pipelined, GridSource,
    TileGridConfig, TileSource, TilesError,
};

/// One image per synthetic generator family (mirrors the `ccl-stream` and
/// `ccl-tiles` equivalence suites).
fn generator_image(idx: usize, w: usize, h: usize, seed: u64) -> BinaryImage {
    let params = BlobParams {
        coverage: 0.35,
        min_radius: 1,
        max_radius: 4,
    };
    let lc = LandcoverParams {
        base_scale: 6.0,
        octaves: 3,
        persistence: 0.5,
    };
    match idx {
        0 => bernoulli(w, h, 0.45, seed),
        1 => landcover(w, h, lc, seed),
        2 => blob_field(w, h, params, seed),
        3 => shape_scene(w, h, 1 + (seed % 7) as usize, seed),
        4 => text_page(w, h, 1, seed),
        5 => checkerboard(w, h, 1 + (seed % 3) as usize),
        6 => stripes(w, h, 5, 2, (1, 1)),
        7 => grating(w, h, 0.31, 0.17, 0.4),
        8 => rings(w, h, 4.0),
        9 => serpentine(w, h),
        10 => comb(w, h, h / 2),
        11 => fine_checkerboard(w, h),
        12 => hstripes(w, h),
        13 => vstripes(w, h),
        _ => spiral(w.max(3)),
    }
}

const NUM_GENERATORS: usize = 15;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tentpole acceptance, rows: a prefetched source (any depth) feeding
    /// `analyze_stream` produces bit-identical records *and* stats to the
    /// synchronous path, across band heights and all generators.
    #[test]
    fn prefetched_rows_bit_identical(
        gen in 0usize..NUM_GENERATORS,
        w in 1usize..=18,
        h in 1usize..=18,
        band in 1usize..=19,
        depth in 1usize..=3,
        seed in 0u64..1000,
    ) {
        let img = generator_image(gen, w, h, seed);
        let mut sync_src = OwnedMemorySource::new(img.clone());
        let (sync_records, sync_stats) =
            analyze_stream(&mut sync_src, band, StripConfig::default()).unwrap();
        let mut pf = PrefetchRows::with_depth(OwnedMemorySource::new(img), band, depth);
        let (records, stats) = analyze_stream(&mut pf, band, StripConfig::default()).unwrap();
        prop_assert_eq!(records, sync_records, "generator {} band {}", gen, band);
        prop_assert_eq!(stats, sync_stats);
    }

    /// A prefetch band height different from the consumer's: the adapter
    /// splits bands (still never exceeding `max_rows`), and the analysis
    /// stays identical by band-height invariance.
    #[test]
    fn prefetched_rows_with_mismatched_band_heights(
        gen in 0usize..NUM_GENERATORS,
        w in 1usize..=16,
        h in 1usize..=16,
        band in 1usize..=17,
        pf_band in 1usize..=17,
        seed in 0u64..1000,
    ) {
        let img = generator_image(gen, w, h, seed);
        let mut sync_src = OwnedMemorySource::new(img.clone());
        let (sync_records, _) =
            analyze_stream(&mut sync_src, band, StripConfig::default()).unwrap();
        let mut pf = PrefetchRows::new(OwnedMemorySource::new(img), pf_band);
        let (records, stats) = analyze_stream(&mut pf, band, StripConfig::default()).unwrap();
        prop_assert_eq!(stats.components as usize, records.len());
        // splitting changes the effective band boundaries: emission order
        // and id numbering shift (open components that merge consume
        // ids), but every per-component feature is band-invariant
        let features = |records: &[ccl_stream::ComponentRecord]| {
            let mut f: Vec<_> = records
                .iter()
                .map(|r| (r.anchor, r.area, r.bbox, r.centroid, r.perimeter, r.holes))
                .collect();
            f.sort_unstable_by_key(|x| x.0);
            f
        };
        prop_assert_eq!(
            features(&records),
            features(&sync_records),
            "band {} pf_band {}",
            band,
            pf_band
        );
    }

    /// Tentpole acceptance, tiles: prefetched tile rows + the pipelined
    /// executor (decode ∥ scan ∥ merge) produce bit-identical records to
    /// the synchronous grid across tile shapes, thread counts and all
    /// generators; only the residency stat differs, and it stays within
    /// two tile rows + the carry row.
    #[test]
    fn prefetched_pipelined_tiles_bit_identical(
        gen in 0usize..NUM_GENERATORS,
        w in 1usize..=16,
        h in 1usize..=16,
        tw in 1usize..=9,
        th in 1usize..=9,
        threads in 1usize..=4,
        prefetch in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let img = generator_image(gen, w, h, seed);
        let cfg = TileGridConfig::parallel(threads);
        let mut sync_src = GridSource::from_image(&img, tw, th);
        let (sync_records, sync_stats) = analyze_tiles(&mut sync_src, cfg.clone()).unwrap();

        let grid = GridSource::new(OwnedMemorySource::new(img), tw, th);
        let (records, stats) = if prefetch {
            let mut staged = PrefetchTiles::new(grid);
            analyze_tiles_pipelined(&mut staged, cfg).unwrap()
        } else {
            let mut grid = grid;
            analyze_tiles_pipelined(&mut grid, cfg).unwrap()
        };
        prop_assert_eq!(records, sync_records, "generator {} tiles {}x{}", gen, tw, th);
        prop_assert_eq!(stats.components, sync_stats.components);
        prop_assert_eq!(stats.rows, sync_stats.rows);
        prop_assert_eq!(stats.tile_rows, sync_stats.tile_rows);
        prop_assert_eq!(stats.tiles, sync_stats.tiles);
        prop_assert!(stats.peak_resident_rows <= 2 * th + 1);
    }

    /// The composed rows stack — `PrefetchRows` decode worker feeding the
    /// pipelined strip labeler (decode ∥ scan ∥ merge) — is bit-identical
    /// to the synchronous path, and its residency stays within two bands +
    /// the carry row.
    #[test]
    fn prefetched_pipelined_rows_bit_identical(
        gen in 0usize..NUM_GENERATORS,
        w in 1usize..=16,
        h in 1usize..=16,
        band in 1usize..=17,
        threads in 1usize..=4,
        prefetch in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        use ccl_stream::analyze_stream_pipelined;
        let img = generator_image(gen, w, h, seed);
        let cfg = StripConfig::parallel(threads);
        let mut sync_src = OwnedMemorySource::new(img.clone());
        let (sync_records, sync_stats) =
            analyze_stream(&mut sync_src, band, cfg.clone()).unwrap();

        let (records, stats) = if prefetch {
            let mut staged = PrefetchRows::new(OwnedMemorySource::new(img), band);
            analyze_stream_pipelined(&mut staged, band, cfg).unwrap()
        } else {
            let mut src = OwnedMemorySource::new(img);
            analyze_stream_pipelined(&mut src, band, cfg).unwrap()
        };
        prop_assert_eq!(records, sync_records, "generator {} band {}", gen, band);
        prop_assert_eq!(stats.components, sync_stats.components);
        prop_assert_eq!(stats.rows, sync_stats.rows);
        prop_assert_eq!(stats.bands, sync_stats.bands);
        prop_assert!(stats.peak_resident_rows <= 2 * band + 1);
    }

    /// Labeled output through the pipeline reconciles into the exact
    /// whole-image partition.
    #[test]
    fn pipelined_labels_reconcile_to_aremsp_partition(
        gen in 0usize..NUM_GENERATORS,
        w in 1usize..=14,
        h in 1usize..=14,
        tw in 1usize..=8,
        th in 1usize..=8,
        seed in 0u64..1000,
    ) {
        let img = generator_image(gen, w, h, seed);
        let mut grid = GridSource::new(OwnedMemorySource::new(img.clone()), tw, th);
        let (li, stats) =
            tiles_to_label_image_pipelined(&mut grid, TileGridConfig::default()).unwrap();
        let reference = aremsp(&img);
        prop_assert_eq!(stats.components, reference.num_components() as u64);
        prop_assert!(labelings_equivalent(&li, &reference));
    }

    /// Prefetched strips reconcile into the exact whole-image partition
    /// (the labeled-output path composes with prefetching too).
    #[test]
    fn prefetched_strip_labels_reconcile(
        gen in 0usize..NUM_GENERATORS,
        w in 1usize..=14,
        h in 1usize..=14,
        band in 1usize..=15,
        seed in 0u64..1000,
    ) {
        let img = generator_image(gen, w, h, seed);
        let mut pf = PrefetchRows::new(OwnedMemorySource::new(img.clone()), band);
        let (li, stats) =
            stream_to_label_image(&mut pf, band, StripConfig::default()).unwrap();
        let reference = aremsp(&img);
        prop_assert_eq!(stats.components, reference.num_components() as u64);
        prop_assert!(labelings_equivalent(&li, &reference));
    }
}

/// A row source that delivers `good` bands, then fails with a decode
/// error — the mid-stream failure regression shape.
struct FailingRows {
    good: usize,
}

impl RowSource for FailingRows {
    fn width(&self) -> usize {
        6
    }
    fn rows_remaining(&self) -> Option<usize> {
        None
    }
    fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError> {
        if self.good == 0 {
            return Err(StreamError::Image(ccl_image::ImageError::Parse(
                "corrupt band 3".into(),
            )));
        }
        self.good -= 1;
        Ok(Some(BinaryImage::ones(6, max_rows.min(2))))
    }
}

/// Regression: a `RowSource` failing mid-stream behind a prefetcher
/// surfaces the *typed* source error through the whole driver stack (the
/// error used to be indistinguishable from end-of-stream in naive
/// channel-based designs — and a blocked worker could hang the caller).
#[test]
fn midstream_row_failure_surfaces_through_driver() {
    let mut pf = PrefetchRows::new(FailingRows { good: 3 }, 2);
    let err = analyze_stream(&mut pf, 2, StripConfig::default()).unwrap_err();
    match err {
        StreamError::Image(e) => assert!(e.to_string().contains("corrupt band 3")),
        other => panic!("expected the source's Image error, got {other}"),
    }
}

/// Regression: the same mid-stream failure through the tile stack — the
/// error crosses *two* workers (prefetcher + pipelined scan stage) and
/// still arrives typed.
#[test]
fn midstream_tile_failure_surfaces_through_pipelined_driver() {
    let grid = GridSource::new(FailingRows { good: 4 }, 3, 2);
    let mut staged = PrefetchTiles::new(grid);
    let err = analyze_tiles_pipelined(&mut staged, TileGridConfig::default()).unwrap_err();
    match err {
        TilesError::Stream(StreamError::Image(e)) => {
            assert!(e.to_string().contains("corrupt band 3"))
        }
        other => panic!("expected the source's Image error, got {other}"),
    }
}

/// Regression: a *panicking* source behind a prefetcher becomes a typed
/// `Worker` error, not a deadlock and not a silent end-of-stream.
#[test]
fn panicking_tile_source_surfaces_through_pipelined_driver() {
    struct PanicsMidStream {
        good: usize,
    }
    impl TileSource for PanicsMidStream {
        fn width(&self) -> usize {
            4
        }
        fn tile_width(&self) -> usize {
            4
        }
        fn tile_height(&self) -> usize {
            2
        }
        fn rows_remaining(&self) -> Option<usize> {
            None
        }
        fn next_tile_row(&mut self) -> Result<Option<Vec<BinaryImage>>, TilesError> {
            assert!(self.good > 0, "generator state corrupted");
            self.good -= 1;
            Ok(Some(vec![BinaryImage::ones(4, 2)]))
        }
    }
    let mut staged = PrefetchTiles::new(PanicsMidStream { good: 2 });
    let err = analyze_tiles_pipelined(&mut staged, TileGridConfig::default()).unwrap_err();
    match err {
        TilesError::Worker(msg) => assert!(msg.contains("corrupted"), "{msg}"),
        other => panic!("expected Worker error, got {other:?}"),
    }
}

/// Acceptance-criteria shape at CI-friendly scale: a generator-fed stream
/// behind the full decode ∥ scan ∥ merge pipeline matches whole-image
/// AREMSP with the pipelined residency bound intact.
#[test]
fn staged_pipeline_matches_whole_image_at_scale() {
    let (w, h, tile) = (256usize, 2048usize, 64usize);
    let source = bernoulli_stream(w, h, 0.5, 123);
    let grid = GridSource::new(source, tile, tile);
    let mut staged = PrefetchTiles::new(grid);
    let (records, stats) = analyze_tiles_pipelined(&mut staged, TileGridConfig::default()).unwrap();
    assert_eq!(stats.rows, h);
    assert!(stats.peak_resident_rows <= 2 * tile + 1);

    let reference = aremsp(&bernoulli(w, h, 0.5, 123));
    assert_eq!(stats.components, reference.num_components() as u64);
    assert_eq!(records.len() as u64, stats.components);
}

/// The full-scale stress run: 67 Mpixel through the composed
/// decode ∥ scan ∥ merge pipeline in 512×512 tiles, analysis identical to
/// whole-image AREMSP, ≤ 2 tile rows + carry resident. Ignored by
/// default; run with `just pipeline-stress`.
#[test]
#[ignore = "67-Mpixel stress run; use cargo test --release -- --ignored"]
fn gigascale_staged_pipeline_bounded_memory() {
    let (w, h, tile) = (4096usize, 16_384usize, 512usize);
    let source = bernoulli_stream(w, h, 0.5, 9001);
    let grid = GridSource::new(source, tile, tile);
    let mut staged = PrefetchTiles::new(grid);
    let (_, stats) = analyze_tiles_pipelined(&mut staged, TileGridConfig::default()).unwrap();
    assert_eq!(stats.rows, h);
    assert_eq!(stats.peak_resident_rows, 2 * tile + 1);

    let reference = aremsp(&bernoulli(w, h, 0.5, 9001));
    assert_eq!(stats.components, reference.num_components() as u64);
}
