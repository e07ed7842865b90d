//! `strip_pbm_analyze`: decode, prefetch and stream-analyze a noise PBM.
//!
//! A P4 PBM byte buffer of Bernoulli-0.5 noise runs through `PbmSource`
//! → `PrefetchRows` → `analyze_stream_pipelined` (sequential scan, the
//! scan ∥ merge pipeline, 1024-row bands) and every `ComponentRecord` is
//! collected. Noise is the worst case for the union-find and for
//! per-pixel accumulation: short runs and about 111k components. It is
//! the only workload that decodes, prefetches and needs features.

use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccl_core::analysis::{count_holes_per_label, region_properties};
use ccl_core::{Algorithm, LabelImage};
use ccl_datasets::synth::noise::bernoulli;
use ccl_image::io::pbm;
use ccl_pipeline::PrefetchRows;
use ccl_stream::{
    analyze_stream_pipelined, label_stream_pipelined, ComponentRecord, PbmSource, StreamStats,
    StripConfig,
};

use crate::harness::{ms, sample, Samples, Workload};
use crate::trace::{Timed, Trace};

/// Image width.
pub const WIDTH: usize = 1024;
/// Image height.
pub const HEIGHT: usize = 32_768;
/// Rows per band, both for the prefetcher and the labeler.
pub const BAND_ROWS: usize = 1024;
const DENSITY: f64 = 0.5;

/// What one call returns.
pub struct StripOutput {
    records: Vec<ComponentRecord>,
    stats: StreamStats,
}

/// The set-up input and its oracle.
pub struct StripPbmAnalyze {
    pbm: Arc<[u8]>,
    width: usize,
    height: usize,
    band_rows: usize,
    foreground: u64,
    components: u64,
    /// Expected record of every component, keyed by its raster-first
    /// pixel (ids are not compared: they number components differently).
    oracle: Option<HashMap<(usize, usize), ComponentRecord>>,
}

impl StripPbmAnalyze {
    /// Generates `width × height` noise from `seed`, encodes it as P4 PBM
    /// and builds the expected records from whole-image AREMSP,
    /// `region_properties`, `count_holes_per_label` and a brute-force
    /// 4-edge perimeter.
    pub fn setup(width: usize, height: usize, band_rows: usize, seed: u64) -> StripPbmAnalyze {
        let image = bernoulli(width, height, DENSITY, seed);
        let pbm: Arc<[u8]> = pbm::write_binary(&image).into();
        let labels = Algorithm::Aremsp.run(&image);
        let oracle = expected_records(&labels);
        StripPbmAnalyze {
            pbm,
            width,
            height,
            band_rows,
            foreground: image.count_foreground() as u64,
            components: u64::from(labels.num_components()),
            oracle: Some(oracle),
        }
    }

    fn source(&self) -> Result<PbmSource<Cursor<Arc<[u8]>>>, String> {
        PbmSource::new(Cursor::new(Arc::clone(&self.pbm))).map_err(|e| format!("strip: {e}"))
    }
}

/// Expected records of a labeling, keyed by anchor.
fn expected_records(labels: &LabelImage) -> HashMap<(usize, usize), ComponentRecord> {
    let (w, h) = (labels.width(), labels.height());
    let n = labels.num_components() as usize;
    let mut anchor = vec![None; n + 1];
    let mut perimeter = vec![0u64; n + 1];
    for r in 0..h {
        for c in 0..w {
            let l = labels.get(r, c) as usize;
            if l == 0 {
                continue;
            }
            anchor[l].get_or_insert((r, c));
            let background = |dr: isize, dc: isize| {
                let (rr, cc) = (r as isize + dr, c as isize + dc);
                rr < 0
                    || cc < 0
                    || rr >= h as isize
                    || cc >= w as isize
                    || labels.get(rr as usize, cc as usize) == 0
            };
            perimeter[l] += [(-1, 0), (1, 0), (0, -1), (0, 1)]
                .into_iter()
                .filter(|&(dr, dc)| background(dr, dc))
                .count() as u64;
        }
    }
    let holes = count_holes_per_label(labels);
    region_properties(labels)
        .into_iter()
        .map(|region| {
            let l = region.label as usize;
            let anchor = anchor[l].expect("every label has a pixel");
            let record = ComponentRecord {
                id: l as u64,
                area: region.area as u64,
                bbox: region.bbox,
                centroid: region.centroid,
                anchor,
                perimeter: perimeter[l],
                holes: holes[l - 1],
            };
            (anchor, record)
        })
        .collect()
}

/// Compares every field but the id.
fn same_features(got: &ComponentRecord, want: &ComponentRecord) -> bool {
    got.area == want.area
        && got.bbox == want.bbox
        && got.centroid == want.centroid
        && got.perimeter == want.perimeter
        && got.holes == want.holes
}

impl Workload for StripPbmAnalyze {
    type Output = StripOutput;

    fn megapixels(&self) -> f64 {
        (self.width * self.height) as f64 / 1e6
    }

    fn describe(&self) -> String {
        format!(
            "{{\"image\": \"bernoulli-0.5 P4 PBM\", \"width\": {}, \"height\": {}, \"pbm_bytes\": {}, \"band_rows\": {}, \"threads\": \"prefetch 1 + scan 1 + merge 1 (StripConfig::sequential, pipelined)\"}}",
            self.width,
            self.height,
            self.pbm.len(),
            self.band_rows
        )
    }

    fn run(&self) -> Result<StripOutput, String> {
        let mut rows = PrefetchRows::new(self.source()?, self.band_rows);
        let (records, stats) =
            analyze_stream_pipelined(&mut rows, self.band_rows, StripConfig::sequential())
                .map_err(|e| format!("strip: {e}"))?;
        rows.into_inner().map_err(|e| format!("strip: {e}"))?;
        Ok(StripOutput { records, stats })
    }

    fn run_traced(
        &self,
        trace: &mut Trace,
        iter: u32,
        samples: &mut Samples,
    ) -> Result<(StripOutput, Duration), String> {
        let root = trace.open(iter, None, "stream.label_stream_pipelined", "main");
        let mut rows = Timed::new(PrefetchRows::new(
            Timed::new(self.source()?),
            self.band_rows,
        ));
        let mut sink = Timed::new(Vec::new());
        let stats = label_stream_pipelined(
            &mut rows,
            self.band_rows,
            StripConfig::sequential(),
            &mut sink,
        )
        .map_err(|e| format!("strip: {e}"))?;
        let mut decoder = rows.inner.into_inner().map_err(|e| format!("strip: {e}"))?;
        trace.close(root);

        // Band deliveries to the scanner: every wait but the last, which
        // returned the end of the stream.
        let delivered: Vec<Instant> = rows.intervals.iter().map(|iv| iv.1).collect();
        for pair in delivered[..delivered.len().saturating_sub(1)].windows(2) {
            let gap = ms(pair[1] - pair[0]);
            sample(samples, "pipeline.band_interval_ms_p50", gap);
            sample(samples, "pipeline.band_interval_ms_p95", gap);
        }
        trace.adopt(
            iter,
            Some(root),
            "pipeline.consumer_wait",
            "scanner",
            &mut rows.intervals,
        );
        trace.adopt(iter, Some(root), "stream.emit", "main", &mut sink.intervals);
        // Decode runs ahead on the prefetch thread, off the caller's
        // blocking path: its spans are roots of their own lane, tied to
        // the call by the iteration number.
        trace.adopt(
            iter,
            None,
            "image.decode",
            "prefetch",
            &mut decoder.intervals,
        );

        let wall = trace.spans[root].duration();
        let decode = trace.total(iter, "image.decode");
        sample(samples, "stream.wall_ms", ms(wall));
        sample(samples, "stream.engine_ms", ms(trace.self_time(root)));
        sample(
            samples,
            "stream.emit_ms",
            ms(trace.total(iter, "stream.emit")),
        );
        sample(
            samples,
            "pipeline.consumer_wait_ms",
            ms(trace.total(iter, "pipeline.consumer_wait")),
        );
        sample(samples, "image.decode_busy_ms", ms(decode));
        sample(
            samples,
            "image.decode_mb_s",
            self.pbm.len() as f64 / 1e6 / decode.as_secs_f64(),
        );
        sample(samples, "pipeline.bands", stats.bands as f64);
        sample(samples, "stream.records", sink.inner.len() as f64);
        sample(samples, "stream.components", stats.components as f64);
        sample(
            samples,
            "stream.peak_resident_rows",
            stats.peak_resident_rows as f64,
        );
        Ok((
            StripOutput {
                records: sink.inner,
                stats,
            },
            wall,
        ))
    }

    fn check_counters(&self, out: &StripOutput) -> Result<(), String> {
        let s = &out.stats;
        let area: u64 = out.records.iter().map(|r| r.area).sum();
        let expected = [
            ("records", out.records.len() as u64, self.components),
            ("components", s.components, self.components),
            ("rows", s.rows as u64, self.height as u64),
            (
                "bands",
                s.bands as u64,
                self.height.div_ceil(self.band_rows) as u64,
            ),
            // The scan ∥ merge pipeline holds two bands plus the carry row.
            (
                "peak_resident_rows",
                s.peak_resident_rows as u64,
                2 * self.band_rows as u64 + 1,
            ),
            ("total area", area, self.foreground),
        ];
        for (what, got, want) in expected {
            if got != want {
                return Err(format!("strip: {what} {got}, expected {want}"));
            }
        }
        Ok(())
    }

    fn check_oracle(&self, out: &StripOutput) -> Result<(), String> {
        let oracle = self
            .oracle
            .as_ref()
            .ok_or("strip: oracle already released")?;
        if out.records.len() != oracle.len() {
            return Err(format!(
                "strip: {} records, oracle has {}",
                out.records.len(),
                oracle.len()
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for r in &out.records {
            let want = oracle
                .get(&r.anchor)
                .ok_or_else(|| format!("strip: no component anchored at {:?}", r.anchor))?;
            if !seen.insert(r.anchor) {
                return Err(format!("strip: two records anchored at {:?}", r.anchor));
            }
            if !same_features(r, want) {
                return Err(format!("strip: record {r:?}, oracle {want:?}"));
            }
        }
        Ok(())
    }

    fn drop_oracle(&mut self) {
        self.oracle = None;
    }

    fn resident_rows(&self, out: &StripOutput) -> usize {
        out.stats.peak_resident_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StripPbmAnalyze {
        StripPbmAnalyze::setup(40, 70, 16, 11)
    }

    #[test]
    fn output_passes_and_corrupted_records_fail() {
        let w = small();
        let out = w.run().unwrap();
        w.check_counters(&out).unwrap();
        w.check_oracle(&out).unwrap();

        let corrupt = |f: &dyn Fn(&mut ComponentRecord)| {
            let mut records = out.records.clone();
            let big = records.iter().position(|r| r.area > 2).unwrap();
            f(&mut records[big]);
            StripOutput {
                records,
                stats: out.stats.clone(),
            }
        };
        // A wrong feature is caught by the oracle only.
        for f in [
            &(|r: &mut ComponentRecord| r.perimeter += 1) as &dyn Fn(&mut ComponentRecord),
            &|r| r.holes += 1,
            &|r| r.bbox.3 += 1,
            &|r| r.centroid.0 += 0.5,
        ] {
            let bad = corrupt(f);
            w.check_counters(&bad).unwrap();
            assert!(w.check_oracle(&bad).is_err());
        }
        // A wrong area also breaks the total-area counter.
        let bad = corrupt(&|r| r.area += 1);
        assert!(w.check_counters(&bad).is_err());
        assert!(w.check_oracle(&bad).is_err());
        // A dropped record breaks the counters.
        let mut short = corrupt(&|_| {});
        short.records.pop();
        assert!(w.check_counters(&short).is_err());
    }

    #[test]
    fn traced_call_reconciles_with_its_wall_time() {
        let w = small();
        let mut trace = Trace::new();
        let mut samples = Samples::new();
        let (out, wall) = w.run_traced(&mut trace, 0, &mut samples).unwrap();
        w.check_counters(&out).unwrap();
        w.check_oracle(&out).unwrap();
        trace.check_nesting().unwrap();
        let bands = w.height.div_ceil(w.band_rows);
        assert_eq!(samples["pipeline.bands"], [bands as f64]);
        assert_eq!(samples["pipeline.band_interval_ms_p50"].len(), bands - 1);
        assert_eq!(trace.ids(0, "stream.emit").len(), out.records.len());
        let engine = samples["stream.engine_ms"][0];
        assert!(engine >= 0.0 && engine <= ms(wall));
    }
}
