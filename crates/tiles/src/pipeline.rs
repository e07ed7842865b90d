//! Pipelined tile-row execution — overlap row *k*'s merge with row
//! *k + 1*'s scans, on `ccl-stream`'s scan ∥ merge executor
//! ([`ccl_stream::pipeline::run_scan_merge`]).
//!
//! The scan stage pulls the next tile row from the source, scans every
//! tile and merges the vertical seams (`scan_tile_row`), reserving
//! carried ids by the width bound so it never waits for the previous
//! row. The merge stage runs the horizontal carry seam, fold, compaction
//! and component emission, then (optionally) spills the labeled tiles
//! (`TileGridLabeler::merge_scanned`). At most two tile rows are alive
//! plus the carried boundary row: the pipelined residency bound
//! `2 × tile_height + 1` pixel rows, reported through
//! [`TileGridStats::peak_resident_rows`]. A failing source, scan or sink
//! surfaces as its own error; a panicking source as
//! [`TilesError::Worker`].

use ccl_stream::merge::carry_bound;
use ccl_stream::pipeline::run_scan_merge;
use ccl_stream::ComponentSink;

use crate::error::TilesError;
use crate::labeler::{scan_tile_row, TileGridConfig, TileGridLabeler, TileGridStats};
use crate::sink::TileSink;
use crate::source::TileSource;

/// Streams `source` through a grid labeler with the two-stage pipeline
/// described in the module docs. Output (components, merges, tiles) is
/// bit-identical to the synchronous drivers; only
/// [`TileGridStats::peak_resident_rows`] differs, reporting the
/// pipeline's two-tile-row + carry residency.
pub(crate) fn run_pipelined<S>(
    source: &mut S,
    cfg: TileGridConfig,
    components: &mut dyn ComponentSink,
    mut sink: Option<&mut dyn TileSink>,
) -> Result<TileGridStats, TilesError>
where
    S: TileSource + Send + ?Sized,
{
    let width = source.width();
    let carry_cap = carry_bound(width);
    let mut labeler = TileGridLabeler::with_config(width, cfg.clone());
    let mut r0 = 0usize;
    let peak = run_scan_merge(
        || {
            let Some(tiles) = source.next_tile_row()? else {
                return Ok(None);
            };
            let row = scan_tile_row(&tiles, width, &cfg, carry_cap, r0)?;
            r0 += row.h;
            Ok(Some(row))
        },
        |row| {
            let sink = sink.as_mut().map(|s| &mut **s as &mut dyn TileSink);
            labeler.merge_scanned(row, components, sink)
        },
        TilesError::worker_panic,
    )?;
    let mut stats = labeler.finish(components);
    stats.peak_resident_rows = peak;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::GridSource;
    use ccl_image::BinaryImage;
    use ccl_stream::{ComponentRecord, CountComponents};

    #[test]
    fn pipelined_output_matches_synchronous() {
        let img = BinaryImage::from_fn(23, 37, |r, c| (r * 31 + c * 17) % 3 != 0);
        let mut sync_records: Vec<ComponentRecord> = Vec::new();
        let mut sync_src = GridSource::from_image(&img, 5, 4);
        let sync_stats =
            crate::driver::label_tiles(&mut sync_src, TileGridConfig::default(), &mut sync_records)
                .unwrap();

        let mut records: Vec<ComponentRecord> = Vec::new();
        let mut src = GridSource::from_image(&img, 5, 4);
        let stats = run_pipelined(&mut src, TileGridConfig::default(), &mut records, None).unwrap();
        assert_eq!(records, sync_records);
        assert_eq!(stats.components, sync_stats.components);
        assert_eq!(stats.rows, sync_stats.rows);
        assert_eq!(stats.tiles, sync_stats.tiles);
        // two 4-row tile rows + the carry row
        assert_eq!(stats.peak_resident_rows, 2 * 4 + 1);
    }

    #[test]
    fn merge_error_does_not_hang_the_scanner() {
        struct FailingSink;
        impl TileSink for FailingSink {
            fn merge(&mut self, _: u64, _: u64) {}
            fn tile(&mut self, _: &crate::sink::TileMeta, _: &[u64]) -> Result<(), TilesError> {
                Err(TilesError::Manifest("sink refused".into()))
            }
        }
        let img = BinaryImage::ones(8, 32);
        let mut src = GridSource::from_image(&img, 4, 4);
        let mut comps = CountComponents::default();
        let mut sink = FailingSink;
        let err = run_pipelined(
            &mut src,
            TileGridConfig::default(),
            &mut comps,
            Some(&mut sink),
        )
        .unwrap_err();
        assert!(matches!(err, TilesError::Manifest(_)));
    }

    #[test]
    fn panicking_source_surfaces_as_worker_error() {
        struct PanickingSource {
            left: usize,
        }
        impl TileSource for PanickingSource {
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
                if self.left == 0 {
                    panic!("generator exploded mid-stream");
                }
                self.left -= 1;
                Ok(Some(vec![BinaryImage::ones(4, 2)]))
            }
        }
        let mut src = PanickingSource { left: 3 };
        let mut comps = CountComponents::default();
        let err = run_pipelined(&mut src, TileGridConfig::default(), &mut comps, None).unwrap_err();
        match err {
            TilesError::Worker(msg) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("expected Worker error, got {other:?}"),
        }
    }
}
