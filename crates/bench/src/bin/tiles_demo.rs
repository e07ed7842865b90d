//! Tile-grid demo — 2-D out-of-core labeling throughput and memory.
//!
//! Streams Bernoulli-noise rasters of growing height through the
//! `ccl-tiles` grid labeler (generator → tile windows → per-tile RemSP →
//! dual-orientation seam merges → on-the-fly analysis) and reports wall
//! time, throughput, component count and the labeler's peak resident
//! rows — at most one tile row plus the carry row, however tall the
//! image grows. A final column times the fully out-of-core pipeline
//! (labels *spilled to disk* as raw `u32` tiles with a sidecar merge
//! table, patched on close) at the smallest height.
//!
//! Timings include row generation, so the metric is end-to-end pipeline
//! throughput, comparable across commits via the JSON snapshot
//! (`results/BENCH_tiles.json`) and the committed history line
//! (`results/BENCH_HISTORY.jsonl`).
//!
//! ```text
//! cargo run --release -p ccl-bench --bin tiles_demo \
//!     [--reps N] [--threads CSV] [--merger locked|cas] [--json PATH]
//! ```

use ccl_bench::BinArgs;
use ccl_datasets::harness::time_best_of;
use ccl_datasets::report::{write_json, Table};
use ccl_datasets::synth::stream::bernoulli_stream;
use ccl_pipeline::PrefetchTiles;
use ccl_stream::CountComponents;
use ccl_tiles::{
    label_tiles, label_tiles_pipelined, spill_tiles, spill_tiles_pipelined, GridSource,
    SpillFormat, TileGridConfig, TileGridStats, TilesError,
};
use serde::Serialize;

const USAGE: &str = "tiles_demo: 2-D tile-grid out-of-core labeling throughput vs image height
  --reps N         repetitions per cell (default 3)
  --threads CSV    in-row scan thread counts (default 1,4)
  --merger KIND    boundary merger for parallel mode: locked (default) or cas
  --prefetch       generate tile rows on a worker thread (ccl-pipeline adapter)
  --pipeline       overlap row k's merge/spill with row k+1's scans
  --depth N        prefetch queue depth (default 2)
  --json PATH      snapshot path (default results/BENCH_tiles.json)";

const WIDTH: usize = 1024;
const TILE: usize = 256;
const HEIGHTS: [usize; 3] = [4_096, 16_384, 65_536];
const DENSITY: f64 = 0.5;

#[derive(Serialize)]
struct TilesRow {
    height: usize,
    megapixels: f64,
    components: u64,
    peak_resident_rows: usize,
    /// Peak resident rows as a fraction of the image height — the
    /// bounded-memory signal (quarters every time the height quadruples).
    resident_fraction: f64,
    /// Best-of wall milliseconds per thread count, `threads` order.
    ms: Vec<f64>,
    /// End-to-end throughput (generate + tile + label + analyze) at the
    /// best thread count, megapixels per second.
    best_mpix_per_s: f64,
}

#[derive(Serialize)]
struct TilesBench {
    width: usize,
    tile: usize,
    density: f64,
    threads: Vec<usize>,
    merger: String,
    /// Whether tile-row generation ran on a `ccl-pipeline` prefetch
    /// worker (`--prefetch`).
    prefetch: bool,
    /// Whether the pipelined scan ∥ merge executor ran (`--pipeline`).
    pipeline: bool,
    rows: Vec<TilesRow>,
    /// Wall milliseconds of the fully out-of-core pipeline (label +
    /// spill raw-u32 tiles to disk + patch on close) at the smallest
    /// height, sequential mode.
    spill_ms: f64,
    spill_height: usize,
}

/// Labels one generated grid with the mode the flags selected.
fn run_labeling(
    args: &BinArgs,
    cfg: &TileGridConfig,
    height: usize,
) -> Result<TileGridStats, TilesError> {
    let source = bernoulli_stream(WIDTH, height, DENSITY, height as u64);
    let grid = GridSource::new(source, TILE, TILE);
    let mut sink = CountComponents::default();
    match (args.prefetch, args.pipeline) {
        (true, true) => {
            let mut staged = PrefetchTiles::with_depth(grid, args.depth);
            label_tiles_pipelined(&mut staged, cfg.clone(), &mut sink)
        }
        (true, false) => {
            let mut staged = PrefetchTiles::with_depth(grid, args.depth);
            label_tiles(&mut staged, cfg.clone(), &mut sink)
        }
        (false, true) => {
            let mut grid = grid;
            label_tiles_pipelined(&mut grid, cfg.clone(), &mut sink)
        }
        (false, false) => {
            let mut grid = grid;
            label_tiles(&mut grid, cfg.clone(), &mut sink)
        }
    }
}

fn main() {
    let args = BinArgs::parse(USAGE);
    let threads = args.threads.clone().unwrap_or_else(|| vec![1, 4]);
    let merger = args.merger_or_default();
    let json_path = args
        .json
        .clone()
        .unwrap_or_else(|| "results/BENCH_tiles.json".to_string());

    let mode = match (args.prefetch, args.pipeline) {
        (true, true) => ", decode∥scan∥merge",
        (true, false) => ", prefetched",
        (false, true) => ", scan∥merge",
        (false, false) => "",
    };
    println!(
        "Tiling {WIDTH}-wide Bernoulli rasters into {TILE}x{TILE} tiles \
         (density {DENSITY}, merger {merger}{mode})\n"
    );
    let mut table = Table::new(
        [
            "Height",
            "Mpixel",
            "Components",
            "Resident rows",
            "Resident",
        ]
        .into_iter()
        .map(str::to_string)
        .chain(threads.iter().map(|t| format!("{t}t [ms]")))
        .chain(std::iter::once("best [Mpx/s]".to_string()))
        .collect::<Vec<_>>(),
    );

    let mut rows = Vec::new();
    for &height in &HEIGHTS {
        let mpix = (WIDTH * height) as f64 / 1e6;
        let mut ms = Vec::new();
        let mut components = 0u64;
        let mut peak = 0usize;
        for &t in &threads {
            let cfg = TileGridConfig::parallel(t).with_merger(merger);
            let best = time_best_of(args.reps, || {
                let stats =
                    run_labeling(&args, &cfg, height).expect("generator streams are infallible");
                components = stats.components;
                peak = stats.peak_resident_rows;
                stats
            });
            ms.push(best);
        }
        let best_ms = ms.iter().cloned().fold(f64::INFINITY, f64::min);
        let row = TilesRow {
            height,
            megapixels: mpix,
            components,
            peak_resident_rows: peak,
            resident_fraction: peak as f64 / height as f64,
            ms: ms.clone(),
            best_mpix_per_s: mpix / (best_ms / 1e3),
        };
        table.push_row(
            [
                height.to_string(),
                format!("{mpix:.1}"),
                row.components.to_string(),
                row.peak_resident_rows.to_string(),
                format!("{:.3}%", row.resident_fraction * 100.0),
            ]
            .into_iter()
            .chain(row.ms.iter().map(|m| format!("{m:.1}")))
            .chain(std::iter::once(format!("{:.1}", row.best_mpix_per_s)))
            .collect::<Vec<_>>(),
        );
        rows.push(row);
    }
    println!("{}", table.render());
    if args.pipeline {
        println!(
            "Resident rows stay at {} (two tile rows + carry row) at every \
             height: labeling memory is O(tile row), not O(image).",
            2 * TILE + 1
        );
    } else {
        println!(
            "Resident rows stay at {} (tile row + carry row) at every height: \
             labeling memory is O(tile row), not O(image).",
            TILE + 1
        );
    }

    // The fully out-of-core pipeline: spill labeled tiles to disk and
    // patch final ids on close (pipelined overlaps the spill writes with
    // the next row's scans when --pipeline is set).
    let spill_height = HEIGHTS[0];
    let spill_dir = ccl_tiles::temp_spill_dir("demo");
    let spill_ms = time_best_of(args.reps, || {
        let _ = std::fs::remove_dir_all(&spill_dir);
        let source = bernoulli_stream(WIDTH, spill_height, DENSITY, spill_height as u64);
        let mut grid = GridSource::new(source, TILE, TILE);
        if args.pipeline {
            spill_tiles_pipelined(
                &mut grid,
                TileGridConfig::default(),
                &spill_dir,
                SpillFormat::RawU32,
            )
        } else {
            spill_tiles(
                &mut grid,
                TileGridConfig::default(),
                &spill_dir,
                SpillFormat::RawU32,
            )
        }
        .expect("spill to temp dir")
    });
    let _ = std::fs::remove_dir_all(&spill_dir);
    let spill_mpix = (WIDTH * spill_height) as f64 / 1e6;
    println!(
        "\nOut-of-core output: label + spill + patch {spill_mpix:.1} Mpixel \
         in {spill_ms:.1} ms ({:.1} Mpx/s incl. disk)",
        spill_mpix / (spill_ms / 1e3)
    );

    let result = TilesBench {
        width: WIDTH,
        tile: TILE,
        density: DENSITY,
        threads,
        merger: merger.to_string(),
        prefetch: args.prefetch,
        pipeline: args.pipeline,
        rows,
        spill_ms,
        spill_height,
    };
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    write_json(&json_path, &result).expect("write json");
    ccl_bench::append_history("tiles_demo", &result).expect("append history");
    eprintln!("wrote {json_path} (+ {})", ccl_bench::HISTORY_PATH);
}
