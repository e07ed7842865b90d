//! Convenience drivers — pull a whole [`TileSource`] through a
//! [`TileGridLabeler`].

use std::path::Path;

use ccl_core::label::LabelImage;
use ccl_stream::{ComponentRecord, ComponentSink, CountComponents};

use crate::error::TilesError;
use crate::labeler::{TileGridConfig, TileGridLabeler, TileGridStats};
use crate::sink::{CollectTiles, SpillFormat, SpillManifest, SpillSink};
use crate::source::TileSource;

/// Streams `source` through a grid labeler tile row by tile row, emitting
/// every component through `sink`. Never holds more than one tile row
/// (plus the carry row) of pixels.
pub fn label_tiles<S, C>(
    source: &mut S,
    cfg: TileGridConfig,
    sink: &mut C,
) -> Result<TileGridStats, TilesError>
where
    S: TileSource + ?Sized,
    C: ComponentSink,
{
    let mut labeler = TileGridLabeler::with_config(source.width(), cfg);
    while let Some(tiles) = source.next_tile_row()? {
        labeler.push_tile_row(&tiles, sink)?;
    }
    Ok(labeler.finish(sink))
}

/// [`label_tiles`] collecting every [`ComponentRecord`] (emission order:
/// closure order).
pub fn analyze_tiles<S>(
    source: &mut S,
    cfg: TileGridConfig,
) -> Result<(Vec<ComponentRecord>, TileGridStats), TilesError>
where
    S: TileSource + ?Sized,
{
    let mut records = Vec::new();
    let stats = label_tiles(source, cfg, &mut records)?;
    Ok((records, stats))
}

/// Streams `source` and reconciles the labeled tiles into a full
/// [`LabelImage`] — for callers who want label output resident (the image
/// is O(width × height); the labeling still runs in O(tile row) working
/// memory on top).
pub fn tiles_to_label_image<S>(
    source: &mut S,
    cfg: TileGridConfig,
) -> Result<(LabelImage, TileGridStats), TilesError>
where
    S: TileSource + ?Sized,
{
    let mut labeler = TileGridLabeler::with_config(source.width(), cfg);
    let mut components = CountComponents::default();
    let mut tiles = CollectTiles::default();
    while let Some(row) = source.next_tile_row()? {
        labeler.push_tile_row_with_labels(&row, &mut components, &mut tiles)?;
    }
    let stats = labeler.finish(&mut components);
    Ok((tiles.into_label_image()?, stats))
}

/// The fully out-of-core pipeline: streams `source` through the grid
/// labeler while spilling every labeled tile to `dir` via [`SpillSink`],
/// then closes the sink (final-label patching, then the sidecar
/// manifest). Both input and output stay bounded-memory; reconstruct the
/// partition later with
/// [`read_spilled_label_image`](crate::sink::read_spilled_label_image).
pub fn spill_tiles<S>(
    source: &mut S,
    cfg: TileGridConfig,
    dir: impl AsRef<Path>,
    format: SpillFormat,
) -> Result<(SpillManifest, TileGridStats), TilesError>
where
    S: TileSource + ?Sized,
{
    let mut labeler = TileGridLabeler::with_config(source.width(), cfg);
    let mut components = CountComponents::default();
    let mut sink = SpillSink::create(dir.as_ref(), format)?;
    while let Some(row) = source.next_tile_row()? {
        labeler.push_tile_row_with_labels(&row, &mut components, &mut sink)?;
    }
    let stats = labeler.finish(&mut components);
    let manifest = sink.close()?;
    Ok((manifest, stats))
}

/// [`label_tiles`] with the two-stage pipeline of [`crate::pipeline`]:
/// row *k + 1*'s tile scans overlap row *k*'s seam merge / accumulation
/// on a worker thread. Components are bit-identical to the synchronous
/// driver; [`TileGridStats::peak_resident_rows`] reports the pipeline's
/// two-tile-row + carry residency.
pub fn label_tiles_pipelined<S, C>(
    source: &mut S,
    cfg: TileGridConfig,
    sink: &mut C,
) -> Result<TileGridStats, TilesError>
where
    S: TileSource + Send + ?Sized,
    C: ComponentSink,
{
    crate::pipeline::run_pipelined(source, cfg, sink, None)
}

/// [`analyze_tiles`] with the two-stage pipeline (see
/// [`label_tiles_pipelined`]).
pub fn analyze_tiles_pipelined<S>(
    source: &mut S,
    cfg: TileGridConfig,
) -> Result<(Vec<ComponentRecord>, TileGridStats), TilesError>
where
    S: TileSource + Send + ?Sized,
{
    let mut records = Vec::new();
    let stats = label_tiles_pipelined(source, cfg, &mut records)?;
    Ok((records, stats))
}

/// [`tiles_to_label_image`] with the two-stage pipeline (see
/// [`label_tiles_pipelined`]): labeled tiles are emitted by the merge
/// stage while the scan stage works one tile row ahead.
pub fn tiles_to_label_image_pipelined<S>(
    source: &mut S,
    cfg: TileGridConfig,
) -> Result<(LabelImage, TileGridStats), TilesError>
where
    S: TileSource + Send + ?Sized,
{
    let mut components = CountComponents::default();
    let mut tiles = CollectTiles::default();
    let stats = crate::pipeline::run_pipelined(source, cfg, &mut components, Some(&mut tiles))?;
    Ok((tiles.into_label_image()?, stats))
}

/// [`spill_tiles`] with the two-stage pipeline (see
/// [`label_tiles_pipelined`]): row *k*'s spill writes overlap row
/// *k + 1*'s tile scans, so the disk never idles behind the scanner nor
/// the scanner behind the disk.
pub fn spill_tiles_pipelined<S>(
    source: &mut S,
    cfg: TileGridConfig,
    dir: impl AsRef<Path>,
    format: SpillFormat,
) -> Result<(SpillManifest, TileGridStats), TilesError>
where
    S: TileSource + Send + ?Sized,
{
    let mut components = CountComponents::default();
    let mut sink = SpillSink::create(dir.as_ref(), format)?;
    let stats = crate::pipeline::run_pipelined(source, cfg, &mut components, Some(&mut sink))?;
    let manifest = sink.close()?;
    Ok((manifest, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::GridSource;
    use ccl_image::BinaryImage;

    #[test]
    fn analyze_tiles_counts_components() {
        let img = BinaryImage::parse(
            "##..##
             ......
             .####.",
        );
        let mut src = GridSource::from_image(&img, 2, 2);
        let (records, stats) = analyze_tiles(&mut src, TileGridConfig::default()).unwrap();
        assert_eq!(stats.components, 3);
        assert_eq!(records.len(), 3);
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.tile_rows, 2);
        assert_eq!(stats.tiles, 6);
    }

    #[test]
    fn tiles_to_label_image_matches_aremsp() {
        let img = BinaryImage::parse(
            "#.#
             .#.
             #.#",
        );
        let mut src = GridSource::from_image(&img, 2, 2);
        let (li, stats) = tiles_to_label_image(&mut src, TileGridConfig::default()).unwrap();
        assert_eq!(stats.components, 1);
        let reference = ccl_core::seq::aremsp(&img);
        assert!(ccl_core::verify::labelings_equivalent(&li, &reference));
    }

    #[test]
    fn spill_tiles_end_to_end() {
        let dir = crate::sink::temp_spill_dir("driver");
        let img = BinaryImage::parse(
            "#.#.#
             #.#.#
             #####",
        );
        let mut src = GridSource::from_image(&img, 2, 2);
        let (manifest, stats) = spill_tiles(
            &mut src,
            TileGridConfig::default(),
            &dir,
            SpillFormat::Pgm16,
        )
        .unwrap();
        assert_eq!(stats.components, 1);
        assert_eq!(manifest.width, 5);
        assert_eq!(manifest.rows, 3);
        let li = crate::sink::read_spilled_label_image(&dir).unwrap();
        let reference = ccl_core::seq::aremsp(&img);
        assert!(ccl_core::verify::labelings_equivalent(&li, &reference));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
