//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), it sets the named workload up three times
//! (reporting the median as `setup_s`), checks one call in full against
//! the oracle, then calls it for `--seconds`, checking every output's
//! counters, and prints every end-to-end metric. Traced (`--trace 1`),
//! it runs every workload in turn for a third of `--seconds` each,
//! alternating untraced and traced calls, and prints every per-layer
//! metric, whichever workload is named. Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.
//!
//! An untraced run measures `peak_rss_mib` on three calls after the full
//! check, with the allocator in a mode where resident memory tracks live
//! memory, then switches it to heap reuse for the timed calls (see
//! `sys::track_live_memory` and `sys::reuse_heap`).
//!
//! Run from the repository root; run files (the tile spill directory and
//! the trace) go to `.perfbench/` there. See `METRICS.md`.

mod harness;
mod metrics;
mod paremsp;
mod stats;
mod strip;
mod sys;
mod tiles;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use harness::{
    measure, measure_peak_rss, measure_traced, reduce, warm_up, Samples, Tally, Workload,
};
use metrics::{END_TO_END, PER_LAYER};
use paremsp::ParemspNlcd;
use stats::{percentile, tail_percentile, Summary};
use strip::StripPbmAnalyze;
use sys::PeakRss;
use tiles::TilesSpillNlcd;
use trace::Trace;

/// Workload names, in the order a traced run measures them.
pub const WORKLOADS: [&str; 3] = ["paremsp_nlcd", "strip_pbm_analyze", "tiles_spill_nlcd"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Calls per untraced run that measure `peak_rss_mib`.
const RSS_CALLS: usize = 3;

/// Directory for run files, relative to the working directory.
const RUN_DIR: &str = ".perfbench";

const USAGE: &str =
    "usage: perfbench --workload <paremsp_nlcd|strip_pbm_analyze|tiles_spill_nlcd> \
     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| bad("not a positive whole number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spill = Path::new(RUN_DIR).join("spill");
    let result = std::fs::create_dir_all(RUN_DIR)
        .map_err(|e| format!("cannot create {RUN_DIR}: {e}"))
        .and_then(|()| {
            print_meta(&args);
            if args.trace {
                traced(&args, &spill)
            } else {
                untraced(&args, &spill)
            }
        });
    let _ = std::fs::remove_dir_all(&spill);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run metadata: every result is stamped with the machine's parallelism,
/// the seed and the commit when one is known.
fn print_meta(args: &Args) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let head = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .map_or("null".to_string(), |h| format!("\"{h}\""));
    println!(
        "meta {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {cores}, \"git_head\": {head}}}",
        args.workload, args.seed, args.seconds, args.trace
    );
}

fn paremsp_setup(seed: u64) -> ParemspNlcd {
    ParemspNlcd::setup(paremsp::WIDTH, paremsp::HEIGHT, seed)
}

fn strip_setup(seed: u64) -> StripPbmAnalyze {
    StripPbmAnalyze::setup(strip::WIDTH, strip::HEIGHT, strip::BAND_ROWS, seed)
}

fn tiles_setup(seed: u64, spill: &Path) -> TilesSpillNlcd {
    TilesSpillNlcd::setup(tiles::WIDTH, tiles::HEIGHT, tiles::TILE, seed, spill)
}

fn untraced(args: &Args, spill: &Path) -> Result<String, String> {
    let budget = Duration::from_secs(args.seconds);
    let seed = args.seed;
    match args.workload {
        "paremsp_nlcd" => end_to_end(|| paremsp_setup(seed), budget),
        "strip_pbm_analyze" => end_to_end(|| strip_setup(seed), budget),
        _ => end_to_end(|| tiles_setup(seed, spill), budget),
    }
}

/// One untraced run: set-ups, the full check, the timed phase, the
/// report. Returns the result line.
fn end_to_end<W: Workload>(setup: impl Fn() -> W, budget: Duration) -> Result<String, String> {
    let rss = PeakRss::current_process();
    // Fail before set-up, not after it, when the memory probe is missing.
    rss.reset()?;
    sys::track_live_memory();
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(setup());
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    println!("inputs {}", w.describe());

    let mut tally = Tally::default();
    warm_up(&mut w, &mut tally);
    let rss_mib = measure_peak_rss(&w, RSS_CALLS, &rss, &mut tally)?;
    sys::reuse_heap();
    let m = measure(&w, budget, &mut tally)?;
    let mpix = w.megapixels();
    let throughput: Vec<f64> = m.wall_s.iter().map(|s| mpix / s).collect();
    let cpu_ms_per_mpix = m.cpu_s * 1e3 / (mpix * m.wall_s.len() as f64);
    let success = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
    let one = |v: f64| (v, Summary::of(&[v]));
    let median = |v: &[f64]| {
        let s = Summary::of(v);
        (s.median, s)
    };
    let reported = [
        median(&throughput),
        one(cpu_ms_per_mpix),
        median(&rss_mib),
        median(&m.resident_rows),
        one(success),
        median(&setup_s),
    ];
    for (metric, (value, s)) in END_TO_END.iter().zip(&reported) {
        println!(
            "{}: {value} {} (samples: median {}, q1 {}, q3 {}, n={})",
            metric.name, metric.unit, s.median, s.q1, s.q3, s.n
        );
    }
    let wall_ms: Vec<f64> = m.wall_s.iter().map(|s| s * 1e3).collect();
    if let Some(p) = tail_percentile(wall_ms.len()) {
        println!("call wall time p{p}: {} ms", percentile(&wall_ms, p));
    }
    let values = END_TO_END
        .iter()
        .zip(&reported)
        .map(|(metric, (value, _))| (metric.name, *value, metric.unit));
    Ok(result_line(tally, values))
}

fn traced(args: &Args, spill: &Path) -> Result<String, String> {
    sys::reuse_heap();
    let budget = Duration::from_secs(args.seconds) / WORKLOADS.len() as u32;
    let seed = args.seed;
    let mut run = TracedRun::default();
    for name in WORKLOADS {
        match name {
            "paremsp_nlcd" => run.workload(name, paremsp_setup(seed), budget),
            "strip_pbm_analyze" => run.workload(name, strip_setup(seed), budget),
            _ => run.workload(name, tiles_setup(seed, spill), budget),
        }
    }
    let path = PathBuf::from(RUN_DIR).join("trace.tsv");
    std::fs::write(&path, &run.tsv).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace written to {}", path.display());

    let get = |name: &str| run.samples.get(name).map(|v| reduce(name, v));
    for layer in PER_LAYER {
        let value = get(layer.name).map_or("missing".to_string(), |v| v.to_string());
        println!(
            "{} = {value} {} on {} (moves {})",
            layer.name, layer.unit, layer.workload, layer.moves
        );
    }
    print_reconciliation(&get);
    let values = PER_LAYER
        .iter()
        .map(|l| (l.name, get(l.name).unwrap_or(f64::NAN), l.unit));
    Ok(result_line(run.tally, values))
}

/// Everything a traced run collects across workloads.
#[derive(Default)]
struct TracedRun {
    samples: Samples,
    tally: Tally,
    tsv: String,
}

impl TracedRun {
    fn workload<W: Workload>(&mut self, name: &'static str, mut w: W, budget: Duration) {
        println!("inputs {name} {}", w.describe());
        let overhead = PER_LAYER
            .iter()
            .map(|l| l.name)
            .find(|m| *m == format!("trace.{name}.overhead_pct"))
            .expect("every workload has an overhead metric");
        let mut tally = Tally::default();
        warm_up(&mut w, &mut tally);
        let mut trace = Trace::new();
        measure_traced(
            &w,
            budget,
            overhead,
            &mut trace,
            &mut self.samples,
            &mut tally,
        );
        self.tally.add(tally);
        self.tsv.push_str(&trace.to_tsv(name));
    }
}

/// Shows how each workload's wall time splits into its layers' times.
fn print_reconciliation(get: &dyn Fn(&str) -> Option<f64>) {
    let sum = |names: &[&str]| -> Option<f64> { names.iter().map(|n| get(n)).sum() };
    let rows: [(&str, &str, &[&str]); 3] = [
        (
            "paremsp_nlcd",
            "core.wall_ms",
            &[
                "core.scan_ms",
                "core.merge_ms",
                "core.flatten_ms",
                "core.relabel_ms",
                "core.other_ms",
            ],
        ),
        (
            "strip_pbm_analyze",
            "stream.wall_ms",
            &[
                "stream.engine_ms",
                "pipeline.consumer_wait_ms",
                "stream.emit_ms",
            ],
        ),
        (
            "tiles_spill_nlcd",
            "tiles.wall_ms",
            &[
                "tiles.source_ms",
                "tiles.labeler_ms",
                "tiles.spill_tile_ms",
                "tiles.finish_ms",
                "tiles.spill_close_ms",
            ],
        ),
    ];
    for (workload, wall, parts) in rows {
        if let (Some(wall), Some(parts_ms)) = (get(wall), sum(parts)) {
            println!(
                "reconcile {workload}: wall {wall:.3} ms, layers {parts_ms:.3} ms ({}), \
                 unattributed {:.3} ms (medians, so the sum is approximate)",
                parts.join(" + "),
                wall - parts_ms
            );
        }
    }
}

/// The final line: one JSON object. A value that could not be measured
/// is reported as 0 and marks the run incorrect.
fn result_line<'a>(tally: Tally, values: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let mut correct = tally.failed == 0;
    let mut metrics = String::new();
    for (i, (name, value, unit)) in values.enumerate() {
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: {name} could not be measured");
            correct = false;
            0.0
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.attempted, tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "tiles_spill_nlcd",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("tiles_spill_nlcd", 7, 10, true)
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "paremsp_nlcd",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "paremsp_nlcd",
            "--seed",
            "1",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "paremsp_nlcd",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let tally = Tally {
            attempted: 4,
            failed: 1,
        };
        let line = result_line(
            tally,
            [("a_ms", 1.25, "ms"), ("b", 3.0, "count")].into_iter(),
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        let ok = result_line(
            Tally {
                attempted: 1,
                failed: 0,
            },
            [("x", f64::NAN, "ms")].into_iter(),
        );
        assert!(ok.starts_with("{\"correct\": false") && ok.contains("\"value\": 0,"));
    }
}
