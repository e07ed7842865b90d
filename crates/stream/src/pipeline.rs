//! Pipelined execution — overlap band *k*'s merge with band *k + 1*'s
//! scan. One generic executor ([`run_scan_merge`]) serves the strip
//! labeler here and the `ccl-tiles` grid labeler.
//!
//! The out-of-core engines' work per band (or tile row) splits into two
//! stages with one dependency between consecutive bands:
//!
//! * **scan stage** — pull the next band from the source, scan it, merge
//!   the in-band seams and build the partial accumulator tables:
//!   independent of everything before it, because carried ids are
//!   reserved by the width bound [`carry_bound`] rather than the actual
//!   open-component count;
//! * **merge stage** — the carry-merge stage ([`crate::merge`]) plus, for
//!   tile rows, the caller's label output: inherently sequential, because
//!   each band's carry feeds the next.
//!
//! The executor runs the scan stage on a worker thread and the merge
//! stage on the caller's, handing scanned bands across a **rendezvous
//! channel** (capacity 0): the scanner cannot run more than one band
//! ahead, so at any instant at most *two* bands are alive — band *k*
//! (labels, under merge) and band *k + 1* (pixels + labels, under scan)
//! — plus the carried boundary row. That is the pipelined residency
//! bound `2 × band_rows + 1` pixel rows, which the executor returns.
//!
//! Errors never hang the pipeline: a failing source or scan surfaces
//! through the channel disconnect + join, a failing merge drops the
//! receiver so the scanner's blocked send aborts, and a panicking source
//! is converted into the caller's worker error (e.g.
//! [`StreamError::Worker`]).

use std::any::Any;
use std::sync::mpsc;

use crate::analysis::ComponentSink;
use crate::error::StreamError;
use crate::labeler::{check_width, StreamStats, StripConfig};
use crate::merge::{carry_bound, CarryMerge, ScannedRows};
use crate::scan::scan_tile_row;
use crate::source::RowSource;

/// Runs `scan` on a worker thread and `merge` on the caller's, one band
/// apart (see the module docs). `scan` returns `Ok(None)` at the end of
/// the stream; `on_panic` turns a panicking scan's payload into an error.
/// Returns the pipeline's peak residency in pixel rows: the tallest pair
/// of consecutive bands with pixels, plus the carry row once two exist.
pub fn run_scan_merge<E, S, M>(
    mut scan: S,
    mut merge: M,
    on_panic: fn(&(dyn Any + Send)) -> E,
) -> Result<usize, E>
where
    E: Send,
    S: FnMut() -> Result<Option<ScannedRows>, E> + Send,
    M: FnMut(ScannedRows) -> Result<(), E>,
{
    // Residency: while the merge stage holds band k, the scan stage holds
    // at most band k + 1 (the send blocks until the merge stage takes the
    // band). Bands without pixels hold nothing and are not counted.
    let mut prev_h = 0usize;
    let mut max_pair = 0usize;
    let mut bands = 0usize;

    let (tx, rx) = mpsc::sync_channel(0);
    std::thread::scope(|s| {
        let scanner = s.spawn(move || -> Result<(), E> {
            while let Some(rows) = scan()? {
                if tx.send(rows).is_err() {
                    break; // merge stage stopped early (error): unblock and exit
                }
            }
            Ok(())
        });

        let mut merged: Result<(), E> = Ok(());
        while let Ok(rows) = rx.recv() {
            if !rows.is_degenerate() {
                bands += 1;
                max_pair = max_pair.max(prev_h + rows.h);
                prev_h = rows.h;
            }
            if let Err(e) = merge(rows) {
                merged = Err(e);
                break;
            }
        }
        // A merge error leaves bands queued: drop the receiver so the
        // scanner's blocked send fails and the thread exits.
        drop(rx);
        let scanned = match scanner.join() {
            Ok(r) => r,
            Err(payload) => Err(on_panic(payload.as_ref())),
        };
        merged.and(scanned)
    })?;
    Ok(max_pair + usize::from(bands >= 2))
}

/// Streams `source` through the strip engine with [`run_scan_merge`].
/// Components are bit-identical to the synchronous drivers; only
/// [`StreamStats::peak_resident_rows`](crate::StreamStats) differs,
/// reporting the pipeline's two-band + carry residency.
pub(crate) fn run_pipelined<S>(
    source: &mut S,
    band_rows: usize,
    cfg: StripConfig,
    components: &mut dyn ComponentSink,
) -> Result<StreamStats, StreamError>
where
    S: RowSource + Send + ?Sized,
{
    let width = source.width();
    let carry_cap = carry_bound(width);
    let mut merge = CarryMerge::new(width, cfg.clone());
    let mut r0 = 0usize;
    let peak = run_scan_merge(
        || {
            let Some(band) = source.next_band(band_rows)? else {
                return Ok(None);
            };
            check_width(&band, width)?;
            let scanned = scan_tile_row(std::slice::from_ref(&band), &cfg, carry_cap, r0);
            r0 += band.height();
            Ok(Some(scanned))
        },
        |band| {
            merge.merge(band, components, false);
            Ok(())
        },
        StreamError::worker_panic,
    )?;
    let mut stats = merge.finish(components);
    stats.peak_resident_rows = peak;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{ComponentRecord, CountComponents};
    use crate::source::MemorySource;
    use ccl_image::BinaryImage;

    #[test]
    fn pipelined_output_matches_synchronous() {
        let img = BinaryImage::from_fn(23, 37, |r, c| (r * 31 + c * 17) % 3 != 0);
        let mut sync_records: Vec<ComponentRecord> = Vec::new();
        let mut sync_src = MemorySource::new(&img);
        let sync_stats = crate::driver::label_stream(
            &mut sync_src,
            4,
            StripConfig::default(),
            &mut sync_records,
        )
        .unwrap();

        let mut records: Vec<ComponentRecord> = Vec::new();
        let mut src = MemorySource::new(&img);
        let stats = run_pipelined(&mut src, 4, StripConfig::default(), &mut records).unwrap();
        assert_eq!(records, sync_records);
        assert_eq!(stats.components, sync_stats.components);
        assert_eq!(stats.rows, sync_stats.rows);
        assert_eq!(stats.bands, sync_stats.bands);
        // two 4-row bands + the carry row
        assert_eq!(stats.peak_resident_rows, 2 * 4 + 1);
    }

    #[test]
    fn panicking_source_surfaces_as_worker_error() {
        struct PanickingSource {
            left: usize,
        }
        impl RowSource for PanickingSource {
            fn width(&self) -> usize {
                4
            }
            fn rows_remaining(&self) -> Option<usize> {
                None
            }
            fn next_band(&mut self, _max: usize) -> Result<Option<BinaryImage>, StreamError> {
                if self.left == 0 {
                    panic!("generator exploded mid-stream");
                }
                self.left -= 1;
                Ok(Some(BinaryImage::ones(4, 2)))
            }
        }
        let mut src = PanickingSource { left: 3 };
        let mut comps = CountComponents::default();
        let err = run_pipelined(&mut src, 2, StripConfig::default(), &mut comps).unwrap_err();
        match err {
            StreamError::Worker(msg) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("expected Worker error, got {other:?}"),
        }
    }
}
