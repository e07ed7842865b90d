//! `tiles_spill_nlcd`: label a land-cover mask tile by tile and spill
//! the labels to disk.
//!
//! The land-cover image runs through `GridSource::from_image` in 512×512
//! tiles and the synchronous `spill_tiles` driver (sequential labeler,
//! `SpillSink` raw `u32`, count-only components) into a directory the
//! benchmark owns. This is the write path beside `strip_pbm_analyze`'s
//! read path; it computes component features it never uses.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use ccl_core::verify::labelings_equivalent;
use ccl_core::{Algorithm, LabelImage};
use ccl_datasets::synth::landcover::{landcover, LandcoverParams};
use ccl_image::BinaryImage;
use ccl_stream::CountComponents;
use ccl_tiles::{
    read_spilled_label_image, spill_tiles, GridSource, SpillFormat, SpillManifest, SpillSink,
    TileGridConfig, TileGridLabeler, TileGridStats, TileSource,
};

use crate::harness::{ms, sample, Samples, Workload};
use crate::trace::{Timed, Trace};

/// Image width.
pub const WIDTH: usize = 4096;
/// Image height.
pub const HEIGHT: usize = 4096;
/// Tile edge.
pub const TILE: usize = 512;

/// What one call returns.
pub struct TilesOutput {
    stats: TileGridStats,
    manifest: SpillManifest,
}

/// The set-up input, its oracle and the spill directory.
pub struct TilesSpillNlcd {
    image: BinaryImage,
    tile: usize,
    dir: PathBuf,
    components: u64,
    /// Whole-image AREMSP labeling of the same image.
    oracle: Option<LabelImage>,
}

impl TilesSpillNlcd {
    /// Generates a `width × height` land-cover mask from `seed` and
    /// labels it with sequential AREMSP as the oracle; spills go to `dir`.
    pub fn setup(
        width: usize,
        height: usize,
        tile: usize,
        seed: u64,
        dir: &Path,
    ) -> TilesSpillNlcd {
        let image = landcover(width, height, LandcoverParams::default(), seed);
        let oracle = Algorithm::Aremsp.run(&image);
        TilesSpillNlcd {
            image,
            tile,
            dir: dir.to_path_buf(),
            components: u64::from(oracle.num_components()),
            oracle: Some(oracle),
        }
    }

    fn config() -> TileGridConfig {
        TileGridConfig::sequential()
    }

    /// Bytes of the spilled tile files (the manifest excluded).
    fn tile_bytes(&self) -> Result<u64, String> {
        let mut total = 0;
        for entry in fs::read_dir(&self.dir).map_err(|e| format!("tiles: {e}"))? {
            let entry = entry.map_err(|e| format!("tiles: {e}"))?;
            if entry.path().extension().is_some_and(|x| x == "u32") {
                total += entry.metadata().map_err(|e| format!("tiles: {e}"))?.len();
            }
        }
        Ok(total)
    }

    /// Removes the spill directory.
    pub fn clean(&self) -> Result<(), String> {
        match fs::remove_dir_all(&self.dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("tiles: cannot clear {}: {e}", self.dir.display()))
            }
            _ => Ok(()),
        }
    }
}

impl Workload for TilesSpillNlcd {
    type Output = TilesOutput;

    fn megapixels(&self) -> f64 {
        self.image.len() as f64 / 1e6
    }

    fn describe(&self) -> String {
        format!(
            "{{\"image\": \"landcover\", \"width\": {}, \"height\": {}, \"tile\": {}, \"spill\": \"raw-u32\", \"threads\": 1}}",
            self.image.width(),
            self.image.height(),
            self.tile
        )
    }

    fn before_call(&self) -> Result<(), String> {
        self.clean()
    }

    fn run(&self) -> Result<TilesOutput, String> {
        let mut grid = GridSource::from_image(&self.image, self.tile, self.tile);
        let (manifest, stats) =
            spill_tiles(&mut grid, Self::config(), &self.dir, SpillFormat::RawU32)
                .map_err(|e| format!("tiles: {e}"))?;
        Ok(TilesOutput { stats, manifest })
    }

    /// The body of `spill_tiles`, with a span around every call it makes.
    fn run_traced(
        &self,
        trace: &mut Trace,
        iter: u32,
        samples: &mut Samples,
    ) -> Result<(TilesOutput, Duration), String> {
        let err = |e: ccl_tiles::TilesError| format!("tiles: {e}");
        let root = trace.open(iter, None, "tiles.spill_tiles", "main");
        let mut grid = Timed::new(GridSource::from_image(&self.image, self.tile, self.tile));
        let mut labeler = TileGridLabeler::with_config(grid.width(), Self::config());
        let mut components = CountComponents::default();
        let mut sink = Timed::new(SpillSink::create(&self.dir, SpillFormat::RawU32).map_err(err)?);
        while let Some(row) = grid.next_tile_row().map_err(err)? {
            let push = trace.open(iter, Some(root), "tiles.push_row", "main");
            labeler
                .push_tile_row_with_labels(&row, &mut components, &mut sink)
                .map_err(err)?;
            trace.close(push);
            trace.adopt(
                iter,
                Some(push),
                "tiles.spill_tile",
                "main",
                &mut sink.intervals,
            );
        }
        trace.adopt(
            iter,
            Some(root),
            "tiles.source",
            "main",
            &mut grid.intervals,
        );
        let finish = trace.open(iter, Some(root), "tiles.finish", "main");
        let stats = labeler.finish(&mut components);
        trace.close(finish);
        let close = trace.open(iter, Some(root), "tiles.spill_close", "main");
        let manifest = sink.inner.close().map_err(err)?;
        trace.close(close);
        trace.close(root);

        let wall = trace.spans[root].duration();
        let pushes = trace.ids(iter, "tiles.push_row");
        let spill = trace.total(iter, "tiles.spill_tile");
        let tile_bytes = self.tile_bytes()?;
        sample(samples, "tiles.wall_ms", ms(wall));
        sample(
            samples,
            "tiles.source_ms",
            ms(trace.total(iter, "tiles.source")),
        );
        let labeler_time: Duration = pushes.iter().map(|&p| trace.self_time(p)).sum();
        sample(samples, "tiles.labeler_ms", ms(labeler_time));
        for &p in &pushes {
            let row = ms(trace.spans[p].duration());
            sample(samples, "tiles.row_ms_p50", row);
            sample(samples, "tiles.row_ms_p95", row);
        }
        sample(samples, "tiles.spill_tile_ms", ms(spill));
        sample(
            samples,
            "tiles.spill_close_ms",
            ms(trace.total(iter, "tiles.spill_close")),
        );
        sample(
            samples,
            "tiles.spill_mb_s",
            tile_bytes as f64 / 1e6 / spill.as_secs_f64(),
        );
        sample(
            samples,
            "tiles.finish_ms",
            ms(trace.total(iter, "tiles.finish")),
        );
        sample(samples, "tiles.tile_rows", stats.tile_rows as f64);
        sample(samples, "tiles.components", stats.components as f64);
        sample(samples, "tiles.spill_bytes", tile_bytes as f64);
        sample(
            samples,
            "tiles.peak_resident_rows",
            stats.peak_resident_rows as f64,
        );
        Ok((TilesOutput { stats, manifest }, wall))
    }

    fn check_counters(&self, out: &TilesOutput) -> Result<(), String> {
        let s = &out.stats;
        let (w, h) = (self.image.width(), self.image.height());
        let tile_rows = h.div_ceil(self.tile);
        let expected = [
            ("components", s.components, self.components),
            ("rows", s.rows as u64, h as u64),
            ("tile rows", s.tile_rows as u64, tile_rows as u64),
            (
                "tiles",
                s.tiles as u64,
                (tile_rows * w.div_ceil(self.tile)) as u64,
            ),
            (
                "manifest tiles",
                out.manifest.tiles.len() as u64,
                s.tiles as u64,
            ),
            // The synchronous labeler holds one tile row plus the carry row.
            (
                "peak_resident_rows",
                s.peak_resident_rows as u64,
                self.tile as u64 + 1,
            ),
            ("spill bytes", self.tile_bytes()?, (w * h * 4) as u64),
        ];
        for (what, got, want) in expected {
            if got != want {
                return Err(format!("tiles: {what} {got}, expected {want}"));
            }
        }
        Ok(())
    }

    fn check_oracle(&self, _out: &TilesOutput) -> Result<(), String> {
        let oracle = self
            .oracle
            .as_ref()
            .ok_or("tiles: oracle already released")?;
        let spilled = read_spilled_label_image(&self.dir).map_err(|e| format!("tiles: {e}"))?;
        if !labelings_equivalent(&spilled, oracle) {
            return Err("tiles: spilled partition differs from whole-image AREMSP".into());
        }
        Ok(())
    }

    fn drop_oracle(&mut self) {
        self.oracle = None;
    }

    fn resident_rows(&self, out: &TilesOutput) -> usize {
        out.stats.peak_resident_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(tag: &str) -> TilesSpillNlcd {
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        TilesSpillNlcd::setup(100, 90, 32, 7, &dir)
    }

    #[test]
    fn spill_passes_and_a_corrupted_tile_fails() {
        let w = small("corrupt");
        w.before_call().unwrap();
        let out = w.run().unwrap();
        w.check_counters(&out).unwrap();
        w.check_oracle(&out).unwrap();

        // Relabel one spilled pixel with a fresh id: sizes stay, the
        // partition does not.
        let path = w.dir.join("tile_00000_00000.u32");
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.chunks(4).position(|p| p != [0; 4]).unwrap() * 4;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, bytes).unwrap();
        w.check_counters(&out).unwrap();
        assert!(w.check_oracle(&out).is_err());

        // A truncated tile breaks the byte counter.
        fs::write(&path, [0u8; 4]).unwrap();
        assert!(w.check_counters(&out).is_err());
        w.clean().unwrap();
    }

    #[test]
    fn traced_call_reconciles_with_its_wall_time() {
        let w = small("traced");
        w.before_call().unwrap();
        let mut trace = Trace::new();
        let mut samples = Samples::new();
        let (out, wall) = w.run_traced(&mut trace, 0, &mut samples).unwrap();
        w.check_counters(&out).unwrap();
        w.check_oracle(&out).unwrap();
        trace.check_nesting().unwrap();
        let parts: f64 = [
            "tiles.source_ms",
            "tiles.labeler_ms",
            "tiles.spill_tile_ms",
            "tiles.finish_ms",
            "tiles.spill_close_ms",
        ]
        .iter()
        .map(|m| samples[m][0])
        .sum();
        assert!(parts <= ms(wall) + 1e-6, "{parts} > {}", ms(wall));
        assert_eq!(samples["tiles.row_ms_p50"].len(), 90usize.div_ceil(32));
        assert_eq!(samples["tiles.spill_bytes"], [(100 * 90 * 4) as f64]);
        w.clean().unwrap();
    }
}
