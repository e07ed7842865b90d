//! [`RowSource`] — the pull-based supplier of row bands.
//!
//! Everything upstream of the strip labeler implements this trait: the
//! in-memory adapter below, the incremental Netpbm decoders
//! ([`crate::netpbm`]) and the streamed synthetic generators
//! ([`crate::generators`]).

use std::borrow::Cow;

use ccl_image::BinaryImage;

use crate::error::StreamError;

/// A pull-based iterator of row bands: top-to-bottom, each band a binary
/// image of the stream's width.
pub trait RowSource {
    /// Width (columns) of every band.
    fn width(&self) -> usize;

    /// Rows not yet delivered, when the source knows (`None` for
    /// unbounded/unknown-length streams).
    fn rows_remaining(&self) -> Option<usize>;

    /// Pulls the next band of at most `max_rows` rows; `Ok(None)` once
    /// the stream is exhausted.
    fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError>;
}

/// Adapts an in-memory [`BinaryImage`]: bands are copied out row ranges.
/// Useful for testing band-size invariance and for feeding resident
/// images through the streaming API. [`MemorySource::new`] borrows the
/// image; [`MemorySource::owned`] takes it, giving the `'static` source
/// a worker thread needs (e.g. behind a `ccl-pipeline` prefetcher).
pub struct MemorySource<'a> {
    image: Cow<'a, BinaryImage>,
    next_row: usize,
}

impl<'a> MemorySource<'a> {
    /// Streams `image` from its first row.
    pub fn new(image: &'a BinaryImage) -> Self {
        MemorySource {
            image: Cow::Borrowed(image),
            next_row: 0,
        }
    }
}

impl MemorySource<'static> {
    /// Streams `image` from its first row, taking ownership.
    pub fn owned(image: BinaryImage) -> Self {
        MemorySource {
            image: Cow::Owned(image),
            next_row: 0,
        }
    }
}

impl RowSource for MemorySource<'_> {
    fn width(&self) -> usize {
        self.image.width()
    }

    fn rows_remaining(&self) -> Option<usize> {
        Some(self.image.height() - self.next_row)
    }

    fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError> {
        assert!(max_rows > 0, "band height must be positive");
        let rows = max_rows.min(self.image.height() - self.next_row);
        if rows == 0 {
            return Ok(None);
        }
        let band = self.image.crop(self.next_row, 0, self.image.width(), rows);
        self.next_row += rows;
        Ok(Some(band))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_source_bands_cover_image() {
        let img = BinaryImage::parse(
            "#..
             .#.
             ..#
             ###
             ...",
        );
        let mut src = MemorySource::new(&img);
        assert_eq!(src.width(), 3);
        assert_eq!(src.rows_remaining(), Some(5));
        let b1 = src.next_band(2).unwrap().unwrap();
        assert_eq!(b1.row(0), img.row(0));
        assert_eq!(b1.row(1), img.row(1));
        let b2 = src.next_band(2).unwrap().unwrap();
        assert_eq!(b2.row(1), img.row(3));
        let b3 = src.next_band(2).unwrap().unwrap();
        assert_eq!(b3.height(), 1);
        assert_eq!(b3.row(0), img.row(4));
        assert!(src.next_band(2).unwrap().is_none());
        assert_eq!(src.rows_remaining(), Some(0));
    }

    #[test]
    fn empty_image_is_immediately_exhausted() {
        let img = BinaryImage::zeros(4, 0);
        let mut src = MemorySource::new(&img);
        assert!(src.next_band(8).unwrap().is_none());
    }

    #[test]
    fn owned_source_matches_borrowed_source() {
        let img = BinaryImage::from_fn(5, 7, |r, c| (r + 2 * c) % 3 == 0);
        let mut borrowed = MemorySource::new(&img);
        let mut owned = MemorySource::owned(img.clone());
        assert_eq!(owned.width(), 5);
        loop {
            let a = borrowed.next_band(3).unwrap();
            let b = owned.next_band(3).unwrap();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
