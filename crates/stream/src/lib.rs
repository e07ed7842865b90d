//! # ccl-stream
//!
//! Bounded-memory streaming/tiled connected component labeling with
//! on-the-fly component analysis — the out-of-core extension of the
//! PAREMSP reproduction (Gupta et al., IPPS 2014).
//!
//! PAREMSP labels an image by scanning disjoint row chunks with disjoint
//! provisional-label ranges and merging only the chunk-boundary rows.
//! That structure is exactly what *out-of-core* labeling needs: when row
//! bands arrive one at a time (a file being decoded, a sensor scanning, a
//! generator producing), each band is a chunk, the boundary merge happens
//! once per band seam, and everything behind the seam can be retired.
//! This crate turns that observation into a pipeline that labels rasters
//! of unbounded height in **O(band) memory**:
//!
//! * [`RowSource`] — pull-based supplier of row bands, with adapters for
//!   in-memory images ([`MemorySource`]), incremental Netpbm files
//!   ([`PbmSource`], [`PgmSource`] — PGM binarized band-wise with the
//!   paper's `im2bw`) and the streamed `ccl-datasets` generators
//!   ([`generators`]);
//! * [`StripLabeler`] — the engine: two-line scan + RemSP per band
//!   (sequential) or full PAREMSP across threads within the resident
//!   band ([`StripConfig::parallel`]), one carried boundary row per
//!   seam, and label-slot recycling so closed components cost nothing;
//! * [`merge`] — the carry-merge stage every band (and every `ccl-tiles`
//!   tile row) goes through after its scan, and [`pipeline`] — the one
//!   scan ∥ merge executor both engines' `*_pipelined` drivers run on;
//! * [`ComponentRecord`] / [`ComponentSink`] — per-component area,
//!   bounding box, centroid, raster anchor, 4-neighbourhood perimeter
//!   and Euler-characteristic hole count, emitted the moment a
//!   component closes, **without ever materializing a label image**
//!   (following Lemaitre & Lacassagne's on-the-fly analysis);
//! * [`LabelSink`] / [`stream_to_label_image`] — optional labeled-strip
//!   output for callers who do want labels.
//!
//! ## Example
//!
//! ```
//! use ccl_datasets::synth::stream::bernoulli_stream;
//! use ccl_stream::{analyze_stream, StripConfig};
//!
//! // A 64 × 4096 noise raster streamed in 64-row bands: the labeler
//! // never holds more than 65 pixel rows.
//! let mut source = bernoulli_stream(64, 4096, 0.3, 42);
//! let (components, stats) =
//!     analyze_stream(&mut source, 64, StripConfig::default()).unwrap();
//! assert_eq!(stats.components as usize, components.len());
//! assert!(stats.peak_resident_rows <= 65);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod driver;
pub mod error;
pub mod generators;
pub mod labeler;
pub mod merge;
pub mod netpbm;
mod parallel;
pub mod pipeline;
pub mod source;

pub use analysis::{
    Accum, CollectLabelImage, ComponentId, ComponentRecord, ComponentSink, CountComponents,
    LabelSink,
};
pub use driver::{
    analyze_stream, analyze_stream_pipelined, label_stream, label_stream_pipelined,
    stream_to_label_image, stream_to_label_image_pipelined,
};
pub use error::StreamError;
pub use labeler::{StreamStats, StripConfig, StripLabeler};
pub use netpbm::{PbmSource, PgmSource};
pub use source::{MemorySource, OwnedMemorySource, RowSource};
