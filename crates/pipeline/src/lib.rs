//! # ccl-pipeline
//!
//! Prefetching + pipelined execution layer for the out-of-core labelers —
//! overlap band/tile **decode**, per-tile **scan** and seam **merge** so
//! no stage ever waits on another (the Gupta et al. speedup recipe —
//! keep every worker busy between phases — applied *across* phases).
//!
//! `stream_demo`/`tiles_demo` show that band and tile-row *generation*
//! dominates end-to-end throughput: the labeler sits idle while the next
//! band decodes, then the source sits idle while the band labels. This
//! crate closes that gap with two composable pieces:
//!
//! * [`PrefetchRows`] / [`PrefetchTiles`] — source adapters that move the
//!   wrapped [`RowSource`](ccl_stream::RowSource) /
//!   [`TileSource`](ccl_tiles::TileSource) onto a worker thread and hand
//!   bands/tile rows through a bounded double buffer (configurable depth,
//!   backpressure, clean shutdown on drop). Both implement the original
//!   source traits, so every existing driver composes unchanged.
//! * the **pipelined scan ∥ merge executor** in `ccl-stream`
//!   ([`ccl_stream::pipeline`]), which every `*_pipelined` driver of both
//!   engines runs on — e.g.
//!   [`analyze_stream_pipelined`](ccl_stream::analyze_stream_pipelined)
//!   and [`analyze_tiles_pipelined`](ccl_tiles::analyze_tiles_pipelined):
//!   band (or tile row) *k + 1*'s scan overlaps band *k*'s carry merge /
//!   accumulation / spill, the carry row being the only dependency
//!   handed across a rendezvous.
//!
//! Stacked, they form a three-stage pipeline — decode ∥ scan ∥
//! merge/spill — with bit-identical output to the synchronous paths.
//! [`PacedRows`]/[`PacedTiles`] complete the toolkit: device-paced
//! wrappers that impose a configurable per-pull latency, modelling the
//! disk/network/sensor stalls that make real decode generation-bound
//! (and making the overlap win measurable on any machine — hiding
//! *latency* needs no spare core).
//!
//! Failures are typed, never hangs: a source error behind a prefetcher
//! surfaces as itself; a *panicking* source surfaces as
//! [`PipelineError::WorkerPanicked`] (mapped to the
//! `Worker` variants of the source-trait error types).
//!
//! ## Example
//!
//! ```
//! use ccl_datasets::synth::stream::landcover_stream;
//! use ccl_datasets::synth::landcover::LandcoverParams;
//! use ccl_pipeline::PrefetchRows;
//! use ccl_stream::{analyze_stream, StripConfig};
//!
//! // fBm land cover is expensive to *generate*: prefetching decodes the
//! // next band while the labeler works on the current one.
//! let params = LandcoverParams { base_scale: 6.0, octaves: 3, persistence: 0.5 };
//! let source = landcover_stream(64, 512, params, 42);
//! let mut prefetched = PrefetchRows::new(source, 64);
//! let (components, stats) =
//!     analyze_stream(&mut prefetched, 64, StripConfig::default()).unwrap();
//! assert_eq!(stats.components as usize, components.len());
//! assert_eq!(stats.rows, 512);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod paced;
pub mod prefetch_rows;
pub mod prefetch_tiles;
mod worker;

pub use error::PipelineError;
pub use paced::{PacedRows, PacedTiles};
pub use prefetch_rows::PrefetchRows;
pub use prefetch_tiles::PrefetchTiles;
