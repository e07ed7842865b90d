//! Convenience drivers — pull a whole [`RowSource`] through a
//! [`StripLabeler`].

use crate::analysis::{ComponentRecord, ComponentSink};
use crate::error::StreamError;
use crate::labeler::{StreamStats, StripConfig, StripLabeler};
use crate::source::RowSource;

/// Streams `source` through a strip labeler in bands of `band_rows`,
/// emitting every component through `sink`. Never holds more than one
/// band (plus the carry row) of pixels.
pub fn label_stream<S, C>(
    source: &mut S,
    band_rows: usize,
    cfg: StripConfig,
    sink: &mut C,
) -> Result<StreamStats, StreamError>
where
    S: RowSource + ?Sized,
    C: ComponentSink,
{
    let mut labeler = StripLabeler::with_config(source.width(), cfg);
    while let Some(band) = source.next_band(band_rows)? {
        labeler.push_band(&band, sink)?;
    }
    Ok(labeler.finish(sink))
}

/// [`label_stream`] collecting every [`ComponentRecord`] (emission order:
/// closure order).
pub fn analyze_stream<S>(
    source: &mut S,
    band_rows: usize,
    cfg: StripConfig,
) -> Result<(Vec<ComponentRecord>, StreamStats), StreamError>
where
    S: RowSource + ?Sized,
{
    let mut records = Vec::new();
    let stats = label_stream(source, band_rows, cfg, &mut records)?;
    Ok((records, stats))
}

/// [`label_stream`] with the two-stage pipeline of [`crate::pipeline`]:
/// band *k + 1*'s scan (and fused partial accumulation) overlaps band
/// *k*'s carry seam / fold / compaction on a worker thread. Components
/// are bit-identical to the synchronous driver;
/// [`StreamStats::peak_resident_rows`] reports the pipeline's two-band +
/// carry residency.
pub fn label_stream_pipelined<S, C>(
    source: &mut S,
    band_rows: usize,
    cfg: StripConfig,
    sink: &mut C,
) -> Result<StreamStats, StreamError>
where
    S: RowSource + Send + ?Sized,
    C: ComponentSink,
{
    crate::pipeline::run_pipelined(source, band_rows, cfg, sink)
}

/// [`analyze_stream`] with the two-stage pipeline (see
/// [`label_stream_pipelined`]).
pub fn analyze_stream_pipelined<S>(
    source: &mut S,
    band_rows: usize,
    cfg: StripConfig,
) -> Result<(Vec<ComponentRecord>, StreamStats), StreamError>
where
    S: RowSource + Send + ?Sized,
{
    let mut records = Vec::new();
    let stats = label_stream_pipelined(source, band_rows, cfg, &mut records)?;
    Ok((records, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemorySource;
    use ccl_image::BinaryImage;

    #[test]
    fn analyze_stream_counts_components() {
        let img = BinaryImage::parse(
            "##..##
             ......
             .####.",
        );
        let mut src = MemorySource::new(&img);
        let (records, stats) = analyze_stream(&mut src, 2, StripConfig::default()).unwrap();
        assert_eq!(stats.components, 3);
        assert_eq!(records.len(), 3);
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.bands, 2);
    }
}
