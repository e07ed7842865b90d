//! Pipeline demo — the overlap win on a generation-bound workload.
//!
//! Out-of-core inputs are generation-bound in practice: the next band
//! waits on a disk seek, an object-store GET or a sensor readout before
//! any pixel can be scanned. This demo models that decode latency
//! explicitly with `ccl-pipeline`'s device-paced wrappers (a fixed stall
//! per delivered band/tile row — hiding *latency* needs no spare core,
//! so the win is measurable on any machine, single-core CI included) and
//! runs the same raster through every execution mode:
//!
//! * rows: synchronous vs `PrefetchRows` (decode ∥ label);
//! * tiles: synchronous vs the pipelined executor (scan ∥ merge) vs the
//!   full three-stage stack `PrefetchTiles` + pipelined
//!   (decode ∥ scan ∥ merge);
//!
//! asserting identical component counts throughout and reporting wall
//! time + speedup per mode. The JSON snapshot
//! (`results/BENCH_pipeline.json`) and the committed
//! `results/BENCH_HISTORY.jsonl` line record the prefetch-on/off pair so
//! the overlap win is visible in the perf trajectory.
//!
//! ```text
//! cargo run --release -p ccl-bench --bin pipeline_demo \
//!     [--reps N] [--depth N] [--json PATH]
//! ```

use std::time::Duration;

use ccl_bench::BinArgs;
use ccl_datasets::harness::time_best_of;
use ccl_datasets::report::{write_json, Table};
use ccl_datasets::synth::stream::bernoulli_stream;
use ccl_pipeline::{PacedRows, PrefetchRows, PrefetchTiles};
use ccl_stream::{label_stream, label_stream_pipelined, CountComponents, StripConfig};
use ccl_tiles::{label_tiles, label_tiles_pipelined, GridSource, TileGridConfig};
use serde::Serialize;

const USAGE: &str = "pipeline_demo: decode/scan/merge overlap on a generation-bound workload
  --reps N         repetitions per mode (default 3)
  --depth N        prefetch queue depth (default 2)
  --json PATH      snapshot path (default results/BENCH_pipeline.json)";

const WIDTH: usize = 512;
const HEIGHT: usize = 6144;
const BAND: usize = 256;
const TILE: usize = 256;
/// Stall per delivered band/tile row: a 128 KiB band from a ~40 MB/s
/// device. 24 bands → ~72 ms of pure decode latency per run.
const DEVICE_LATENCY: Duration = Duration::from_millis(3);

fn source() -> PacedRows<ccl_datasets::synth::stream::RowStream> {
    PacedRows::new(bernoulli_stream(WIDTH, HEIGHT, 0.5, 77), DEVICE_LATENCY)
}

#[derive(Serialize)]
struct Mode {
    name: String,
    ms: f64,
    speedup_vs_sync: f64,
    components: u64,
}

#[derive(Serialize)]
struct PipelineBench {
    width: usize,
    height: usize,
    band: usize,
    tile: usize,
    depth: usize,
    device_latency_ms: f64,
    rows_modes: Vec<Mode>,
    tiles_modes: Vec<Mode>,
}

fn main() {
    let args = BinArgs::parse(USAGE);
    let json_path = args
        .json
        .clone()
        .unwrap_or_else(|| "results/BENCH_pipeline.json".to_string());
    let mpix = (WIDTH * HEIGHT) as f64 / 1e6;
    println!(
        "{WIDTH}x{HEIGHT} Bernoulli raster ({mpix:.1} Mpixel) behind a device-paced \
         decoder ({:.0} ms per {BAND}-row band), prefetch depth {}\n",
        DEVICE_LATENCY.as_secs_f64() * 1e3,
        args.depth
    );

    let mut table = Table::new(
        ["Mode", "ms", "vs sync", "Mpx/s"]
            .into_iter()
            .map(str::to_string)
            .collect::<Vec<_>>(),
    );
    let mut measure = |name: &str, sync_ms: Option<f64>, f: &mut dyn FnMut() -> u64| {
        let mut components = 0;
        let ms = time_best_of(args.reps, || components = f());
        let speedup = sync_ms.map_or(1.0, |s| s / ms);
        table.push_row(vec![
            name.to_string(),
            format!("{ms:.1}"),
            format!("{speedup:.2}x"),
            format!("{:.1}", mpix / (ms / 1e3)),
        ]);
        Mode {
            name: name.to_string(),
            ms,
            speedup_vs_sync: speedup,
            components,
        }
    };

    // --- row bands ---
    let strip_cfg = StripConfig::default;
    let rows_sync = measure("rows sync", None, &mut || {
        let mut src = source();
        let mut sink = CountComponents::default();
        label_stream(&mut src, BAND, strip_cfg(), &mut sink).expect("infallible");
        sink.count
    });
    let rows_pf = measure("rows decode∥label", Some(rows_sync.ms), &mut || {
        let mut src = PrefetchRows::with_depth(source(), BAND, args.depth);
        let mut sink = CountComponents::default();
        label_stream(&mut src, BAND, strip_cfg(), &mut sink).expect("infallible");
        sink.count
    });
    let rows_pipe = measure("rows scan∥merge", Some(rows_sync.ms), &mut || {
        let mut src = source();
        let mut sink = CountComponents::default();
        label_stream_pipelined(&mut src, BAND, strip_cfg(), &mut sink).expect("infallible");
        sink.count
    });
    let rows_full = measure(
        "rows decode∥scan∥merge",
        Some(rows_sync.ms),
        &mut || {
            let mut src = PrefetchRows::with_depth(source(), BAND, args.depth);
            let mut sink = CountComponents::default();
            label_stream_pipelined(&mut src, BAND, strip_cfg(), &mut sink).expect("infallible");
            sink.count
        },
    );
    assert_eq!(rows_pf.components, rows_sync.components);
    assert_eq!(rows_pipe.components, rows_sync.components);
    assert_eq!(rows_full.components, rows_sync.components);

    // --- tile grid ---
    let tile_cfg = TileGridConfig::default;
    let tiles_sync = measure("tiles sync", None, &mut || {
        let mut grid = GridSource::new(source(), TILE, TILE);
        let mut sink = CountComponents::default();
        label_tiles(&mut grid, tile_cfg(), &mut sink).expect("infallible");
        sink.count
    });
    let tiles_pipe = measure("tiles scan∥merge", Some(tiles_sync.ms), &mut || {
        let mut grid = GridSource::new(source(), TILE, TILE);
        let mut sink = CountComponents::default();
        label_tiles_pipelined(&mut grid, tile_cfg(), &mut sink).expect("infallible");
        sink.count
    });
    let tiles_full = measure(
        "tiles decode∥scan∥merge",
        Some(tiles_sync.ms),
        &mut || {
            let grid = GridSource::new(source(), TILE, TILE);
            let mut staged = PrefetchTiles::with_depth(grid, args.depth);
            let mut sink = CountComponents::default();
            label_tiles_pipelined(&mut staged, tile_cfg(), &mut sink).expect("infallible");
            sink.count
        },
    );
    assert_eq!(tiles_pipe.components, tiles_sync.components);
    assert_eq!(tiles_full.components, tiles_sync.components);

    println!("{}", table.render());
    println!(
        "Identical component counts in every mode ({}); the overlap modes hide \
         the decode latency behind labeling.",
        tiles_sync.components
    );

    let result = PipelineBench {
        width: WIDTH,
        height: HEIGHT,
        band: BAND,
        tile: TILE,
        depth: args.depth,
        device_latency_ms: DEVICE_LATENCY.as_secs_f64() * 1e3,
        rows_modes: vec![rows_sync, rows_pf, rows_pipe, rows_full],
        tiles_modes: vec![tiles_sync, tiles_pipe, tiles_full],
    };
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    write_json(&json_path, &result).expect("write json");
    ccl_bench::append_history("pipeline_demo", &result).expect("append history");
    eprintln!("wrote {json_path} (+ {})", ccl_bench::HISTORY_PATH);
}
