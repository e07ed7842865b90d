//! [`TileSource`] — the pull-based supplier of tile rows.
//!
//! The grid labeler consumes one **tile row** at a time: the horizontal
//! run of `⌈width / tile_width⌉` tiles covering the next `tile_height`
//! image rows (clipped at the right and bottom edges). One generic
//! adapter, [`GridSource`], windows any `ccl-stream` [`RowSource`] into
//! tiles, which covers all three source families out of the box:
//!
//! * **in-memory** — [`GridSource::from_image`] over [`MemorySource`];
//! * **Netpbm window reader** — [`GridSource::pbm`] / [`GridSource::pgm`]
//!   over the incremental band decoders, so a file on disk is decoded one
//!   tile row at a time;
//! * **streamed generators** — [`GridSource::new`] over any
//!   `RowStream` from `ccl_datasets::synth::stream` (which implements
//!   [`RowSource`]), so synthetic rasters of unbounded size tile without
//!   ever existing in memory.

use std::io::Read;

use ccl_image::BinaryImage;
use ccl_stream::{MemorySource, PbmSource, PgmSource, RowSource};

use crate::error::TilesError;

/// A pull-based iterator of tile rows, top-to-bottom. Every returned row
/// holds the tiles left-to-right; all tiles in a row share one height
/// (`≤ tile_height`), and their widths sum to the grid width.
pub trait TileSource {
    /// Total width (columns) of the tiled image.
    fn width(&self) -> usize;

    /// Nominal tile width (the rightmost tile may be narrower).
    fn tile_width(&self) -> usize;

    /// Nominal tile height (the bottom tile row may be shorter).
    fn tile_height(&self) -> usize;

    /// Image rows not yet delivered, when the source knows.
    fn rows_remaining(&self) -> Option<usize>;

    /// Pulls the next tile row; `Ok(None)` once the stream is exhausted.
    fn next_tile_row(&mut self) -> Result<Option<Vec<BinaryImage>>, TilesError>;
}

/// Windows any [`RowSource`] into a tile grid: each pulled band of
/// `tile_height` rows is chopped into `tile_width`-wide tiles.
pub struct GridSource<S> {
    inner: S,
    tile_width: usize,
    tile_height: usize,
}

impl<S: RowSource> GridSource<S> {
    /// Wraps a row source in a `tile_width × tile_height` grid.
    ///
    /// # Panics
    /// Panics when either tile dimension is 0.
    pub fn new(inner: S, tile_width: usize, tile_height: usize) -> Self {
        assert!(
            tile_width > 0 && tile_height > 0,
            "tile dimensions must be positive"
        );
        GridSource {
            inner,
            tile_width,
            tile_height,
        }
    }

    /// Number of tile columns in the grid.
    pub fn tile_cols(&self) -> usize {
        self.inner.width().div_ceil(self.tile_width).max(1)
    }

    /// Consumes the adapter, returning the wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<'a> GridSource<MemorySource<'a>> {
    /// Tiles a resident [`BinaryImage`] (testing and small inputs).
    pub fn from_image(image: &'a BinaryImage, tile_width: usize, tile_height: usize) -> Self {
        GridSource::new(MemorySource::new(image), tile_width, tile_height)
    }
}

impl<R: Read> GridSource<PbmSource<R>> {
    /// Tiles a PBM (`P1`/`P4`) stream, decoding one tile row of the file
    /// at a time (wrap files in a [`std::io::BufReader`]).
    pub fn pbm(reader: R, tile_width: usize, tile_height: usize) -> Result<Self, TilesError> {
        Ok(GridSource::new(
            PbmSource::new(reader)?,
            tile_width,
            tile_height,
        ))
    }
}

impl<R: Read> GridSource<PgmSource<R>> {
    /// Tiles a PGM (`P2`/`P5`) stream binarized with the `im2bw`
    /// threshold `level` (the paper uses 0.5).
    pub fn pgm(
        reader: R,
        level: f64,
        tile_width: usize,
        tile_height: usize,
    ) -> Result<Self, TilesError> {
        Ok(GridSource::new(
            PgmSource::new(reader, level)?,
            tile_width,
            tile_height,
        ))
    }
}

impl<S: RowSource> TileSource for GridSource<S> {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn tile_width(&self) -> usize {
        self.tile_width
    }

    fn tile_height(&self) -> usize {
        self.tile_height
    }

    fn rows_remaining(&self) -> Option<usize> {
        self.inner.rows_remaining()
    }

    fn next_tile_row(&mut self) -> Result<Option<Vec<BinaryImage>>, TilesError> {
        let band = match self.inner.next_band(self.tile_height)? {
            Some(band) => band,
            None => return Ok(None),
        };
        let w = band.width();
        if w <= self.tile_width {
            // a band that fits one tile (a strip's one-column grid, or a
            // zero-width stream) is handed through uncopied
            return Ok(Some(vec![band]));
        }
        let mut tiles = Vec::with_capacity(w.div_ceil(self.tile_width));
        let mut x0 = 0;
        while x0 < w {
            let tw = self.tile_width.min(w - x0);
            tiles.push(band.crop(0, x0, tw, band.height()));
            x0 += tw;
        }
        Ok(Some(tiles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_source_tiles_cover_the_image() {
        let img = BinaryImage::from_fn(7, 5, |r, c| (r * 7 + c) % 3 == 0);
        // clipped at the right edge, and one tile column (the band itself)
        for (tw, widths) in [(3, vec![3, 3, 1]), (7, vec![7]), (9, vec![7])] {
            let mut src = GridSource::from_image(&img, tw, 2);
            assert_eq!(src.width(), 7);
            assert_eq!(src.tile_cols(), widths.len());
            assert_eq!(src.rows_remaining(), Some(5));
            let mut r0 = 0;
            while let Some(tiles) = src.next_tile_row().unwrap() {
                let got: Vec<usize> = tiles.iter().map(BinaryImage::width).collect();
                assert_eq!(got, widths, "{tw}-wide tiles");
                let th = tiles[0].height();
                assert!(tiles.iter().all(|t| t.height() == th));
                let mut x0 = 0;
                for t in &tiles {
                    for r in 0..th {
                        for c in 0..t.width() {
                            assert_eq!(t.get(r, c), img.get(r0 + r, x0 + c));
                        }
                    }
                    x0 += t.width();
                }
                r0 += th;
            }
            assert_eq!(r0, 5);
            assert_eq!(src.rows_remaining(), Some(0));
        }
    }

    #[test]
    fn bottom_row_is_clipped() {
        let img = BinaryImage::ones(4, 5);
        let mut src = GridSource::from_image(&img, 2, 2);
        let mut heights = Vec::new();
        while let Some(tiles) = src.next_tile_row().unwrap() {
            heights.push(tiles[0].height());
        }
        assert_eq!(heights, vec![2, 2, 1]);
    }

    #[test]
    fn netpbm_window_reader_streams_tiles() {
        let img = BinaryImage::parse("#.#. .#.# ##.. ..##");
        let bytes = ccl_image::io::pbm::write_binary(&img);
        let mut src = GridSource::pbm(bytes.as_slice(), 3, 3).unwrap();
        let first = src.next_tile_row().unwrap().unwrap();
        assert_eq!(first.len(), 2);
        assert_eq!((first[0].width(), first[1].width()), (3, 1));
        assert_eq!(first[0].height(), 3);
        let second = src.next_tile_row().unwrap().unwrap();
        assert_eq!(second[0].height(), 1);
        assert!(src.next_tile_row().unwrap().is_none());
    }

    #[test]
    fn zero_width_stream_yields_empty_tiles() {
        let img = BinaryImage::zeros(0, 3);
        let mut src = GridSource::from_image(&img, 4, 2);
        let row = src.next_tile_row().unwrap().unwrap();
        assert_eq!(row.len(), 1);
        assert_eq!(row[0].width(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_width_rejected() {
        let img = BinaryImage::zeros(4, 4);
        GridSource::from_image(&img, 0, 2);
    }
}
