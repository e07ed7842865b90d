//! `paremsp_nlcd`: the paper's own algorithm on its own data family.
//!
//! Whole-image PAREMSP at two threads on an NLCD-like land-cover mask
//! (long runs, few large components). Only ccl-core and ccl-unionfind
//! run; decode, bands, accumulation, pipeline and spill are bypassed, so
//! an out-of-core change should not move this workload.

use std::time::{Duration, Instant};

use ccl_core::par::partition::total_label_slots;
use ccl_core::par::{paremsp_with, partition_rows, ParemspConfig};
use ccl_core::verify::labelings_equivalent;
use ccl_core::{Algorithm, LabelImage};
use ccl_datasets::synth::landcover::{landcover, LandcoverParams};
use ccl_image::BinaryImage;

use crate::harness::{ms, sample, Samples, Workload};
use crate::trace::Trace;

/// Image width (the paper's NLCD rasters are wide).
pub const WIDTH: usize = 4096;
/// Image height.
pub const HEIGHT: usize = 4096;
/// PAREMSP worker threads: the machine this was sized on has two cores.
pub const THREADS: usize = 2;

/// The set-up input and its oracle.
pub struct ParemspNlcd {
    image: BinaryImage,
    /// Whole-image AREMSP labeling of the same image.
    oracle: Option<LabelImage>,
    components: u32,
    label_slots: usize,
}

impl ParemspNlcd {
    /// Generates a `width × height` land-cover mask from `seed` and
    /// labels it with sequential AREMSP as the oracle.
    pub fn setup(width: usize, height: usize, seed: u64) -> ParemspNlcd {
        let image = landcover(width, height, LandcoverParams::default(), seed);
        let oracle = Algorithm::Aremsp.run(&image);
        ParemspNlcd {
            components: oracle.num_components(),
            label_slots: total_label_slots(&partition_rows(height, width, THREADS)),
            image,
            oracle: Some(oracle),
        }
    }

    fn call(&self, threads: usize) -> (LabelImage, ccl_core::par::PhaseTimings) {
        paremsp_with(&self.image, &ParemspConfig::with_threads(threads))
    }
}

impl Workload for ParemspNlcd {
    type Output = LabelImage;

    fn megapixels(&self) -> f64 {
        self.image.len() as f64 / 1e6
    }

    fn describe(&self) -> String {
        format!(
            "{{\"image\": \"landcover\", \"width\": {}, \"height\": {}, \"threads\": {THREADS}, \"baseline_threads\": 1}}",
            self.image.width(),
            self.image.height()
        )
    }

    fn run(&self) -> Result<LabelImage, String> {
        Ok(self.call(THREADS).0)
    }

    fn run_traced(
        &self,
        trace: &mut Trace,
        iter: u32,
        samples: &mut Samples,
    ) -> Result<(LabelImage, Duration), String> {
        let start = Instant::now();
        let (labels, phases) = self.call(THREADS);
        let root = trace.span(
            iter,
            None,
            "core.paremsp_with",
            "main",
            (start, Instant::now()),
        );
        let wall = trace.spans[root].duration();
        sample(samples, "core.wall_ms", ms(wall));
        sample(samples, "core.scan_ms", ms(phases.scan));
        sample(samples, "core.merge_ms", ms(phases.merge));
        sample(samples, "core.flatten_ms", ms(phases.flatten));
        sample(samples, "core.relabel_ms", ms(phases.relabel));
        sample(
            samples,
            "core.other_ms",
            ms(wall.saturating_sub(phases.total())),
        );
        sample(
            samples,
            "core.components",
            f64::from(labels.num_components()),
        );
        sample(samples, "core.label_slots", self.label_slots as f64);

        // Single-thread baseline, right after the two-thread call so the
        // pair sees the same machine state.
        let start = Instant::now();
        let (single, _) = self.call(1);
        let t1 = trace.span(
            iter,
            None,
            "core.paremsp_with_t1",
            "main",
            (start, Instant::now()),
        );
        let t1_wall = trace.spans[t1].duration();
        self.check_counters(&single)?;
        sample(
            samples,
            "core.t1_mpix_s",
            self.megapixels() / t1_wall.as_secs_f64(),
        );
        sample(
            samples,
            "core.speedup_vs_1t",
            t1_wall.as_secs_f64() / wall.as_secs_f64(),
        );
        Ok((labels, wall))
    }

    fn check_counters(&self, out: &LabelImage) -> Result<(), String> {
        if (out.width(), out.height()) != (self.image.width(), self.image.height()) {
            return Err(format!(
                "paremsp: output is {}x{}, input {}x{}",
                out.width(),
                out.height(),
                self.image.width(),
                self.image.height()
            ));
        }
        if out.num_components() != self.components {
            return Err(format!(
                "paremsp: {} components, oracle has {}",
                out.num_components(),
                self.components
            ));
        }
        Ok(())
    }

    fn check_oracle(&self, out: &LabelImage) -> Result<(), String> {
        let oracle = self
            .oracle
            .as_ref()
            .ok_or("paremsp: oracle already released")?;
        if !labelings_equivalent(out, oracle) {
            return Err("paremsp: partition differs from whole-image AREMSP".into());
        }
        Ok(())
    }

    fn drop_oracle(&mut self) {
        self.oracle = None;
    }

    fn resident_rows(&self, _out: &LabelImage) -> usize {
        self.image.height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{warm_up, Tally};

    #[test]
    fn output_passes_and_corruption_fails_the_oracle() {
        let mut w = ParemspNlcd::setup(320, 256, 3);
        let out = w.run().unwrap();
        w.check_counters(&out).unwrap();
        w.check_oracle(&out).unwrap();

        // Move one foreground pixel into another component's label: the
        // count still matches, the full comparison must not.
        let n = out.num_components();
        assert!(n >= 2, "test image needs two components");
        let mut raw = out.clone().into_raw();
        let at = raw.iter().position(|&l| l == 1).unwrap();
        raw[at] = 2;
        let corrupted = LabelImage::from_raw(out.width(), out.height(), raw, n);
        w.check_counters(&corrupted).unwrap();
        assert!(w.check_oracle(&corrupted).is_err());

        let wrong_count = LabelImage::from_raw(out.width(), out.height(), out.into_raw(), n + 1);
        assert!(w.check_counters(&wrong_count).is_err());

        let mut tally = Tally::default();
        warm_up(&mut w, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
        assert!(w.check_oracle(&corrupted).is_err(), "oracle released");
    }

    #[test]
    fn traced_call_reports_core_layers() {
        let w = ParemspNlcd::setup(64, 64, 5);
        let mut trace = Trace::new();
        let mut samples = Samples::new();
        let (out, wall) = w.run_traced(&mut trace, 0, &mut samples).unwrap();
        w.check_counters(&out).unwrap();
        assert!(wall > Duration::ZERO);
        for name in [
            "core.scan_ms",
            "core.other_ms",
            "core.t1_mpix_s",
            "core.speedup_vs_1t",
        ] {
            assert_eq!(samples[name].len(), 1, "{name}");
        }
        assert_eq!(samples["core.components"][0], f64::from(w.components));
    }
}
