//! The measurement loops shared by every workload.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::stats::{median, percentile};
use crate::sys::{cpu_seconds, PeakRss};
use crate::trace::Trace;

/// Per-layer samples of a traced run, by metric name. A metric whose
/// name ends in `_p95` reduces to the 95th percentile of its samples,
/// every other one to the median.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Appends one sample.
pub fn sample(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

/// Reduces one metric's samples to its reported value.
pub fn reduce(name: &str, values: &[f64]) -> f64 {
    if name.ends_with("_p95") {
        percentile(values, 95)
    } else {
        median(values)
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One benchmark workload: an input held in memory, the end-to-end
/// labeling call under test, and the checks on its output.
pub trait Workload {
    /// What one labeling call returns.
    type Output;

    /// Input size in megapixels.
    fn megapixels(&self) -> f64;

    /// Sizes, thread counts and configuration, as a JSON object.
    fn describe(&self) -> String;

    /// Work to do before each call, outside the timed region.
    fn before_call(&self) -> Result<(), String> {
        Ok(())
    }

    /// The end-to-end labeling call, untraced.
    fn run(&self) -> Result<Self::Output, String>;

    /// The same call with spans recorded under iteration `iter`; pushes
    /// the per-layer samples and returns the call's wall time.
    fn run_traced(
        &self,
        trace: &mut Trace,
        iter: u32,
        samples: &mut Samples,
    ) -> Result<(Self::Output, Duration), String>;

    /// Compares every deterministic counter of `out` exactly.
    fn check_counters(&self, out: &Self::Output) -> Result<(), String>;

    /// Compares `out` in full against the oracle built in set-up.
    fn check_oracle(&self, out: &Self::Output) -> Result<(), String>;

    /// Releases the oracle once the full comparison is done, so it does
    /// not count toward the timed phase's memory.
    fn drop_oracle(&mut self);

    /// Peak resident pixel rows the call reported.
    fn resident_rows(&self, out: &Self::Output) -> usize;
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panic: {msg}"))
    })
}

/// Attempted and failed iterations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Iterations attempted.
    pub attempted: u64,
    /// Iterations that returned an error, panicked, or failed a check.
    pub failed: u64,
}

impl Tally {
    /// Counts one iteration and reports a failure on standard error.
    pub fn record<T>(&mut self, outcome: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("iteration failed: {e}");
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The first call of a run: untimed, checked in full against the oracle,
/// which is then released. It also lets caches and lazy set-up settle
/// before timing starts.
pub fn warm_up<W: Workload>(w: &mut W, tally: &mut Tally) {
    let outcome = w.before_call().and_then(|()| {
        let out = guarded(|| w.run())?;
        w.check_counters(&out)?;
        w.check_oracle(&out)
    });
    tally.record(&outcome);
    w.drop_oracle();
}

/// Raw figures of the timed phase of an untraced run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall seconds of each call.
    pub wall_s: Vec<f64>,
    /// Process CPU seconds summed over the calls.
    pub cpu_s: f64,
    /// Resident rows each successful call reported.
    pub resident_rows: Vec<f64>,
}

/// Calls the workload repeatedly for `budget`, checking the counters of
/// every output. Fails only when the CPU-time probe is unavailable.
pub fn measure<W: Workload>(
    w: &W,
    budget: Duration,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let mut timed = Measured::default();
    let start = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || start.elapsed() < budget {
        calls += 1;
        if let Err(e) = w.before_call() {
            tally.record::<()>(&Err(e));
            continue;
        }
        let cpu0 = cpu_seconds()?;
        let t0 = Instant::now();
        let out = guarded(|| w.run());
        let wall = t0.elapsed();
        timed.cpu_s += cpu_seconds()? - cpu0;
        timed.wall_s.push(wall.as_secs_f64());
        let outcome = out.and_then(|out| {
            w.check_counters(&out)?;
            Ok(w.resident_rows(&out))
        });
        tally.record(&outcome);
        if let Ok(rows) = outcome {
            timed.resident_rows.push(rows as f64);
        }
    }
    Ok(timed)
}

/// Peak RSS in MiB of each of `calls` calls, counters checked. Fails only
/// when the memory probe is unavailable.
pub fn measure_peak_rss<W: Workload>(
    w: &W,
    calls: usize,
    rss: &PeakRss,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let mut peaks = Vec::new();
    for _ in 0..calls {
        if let Err(e) = w.before_call() {
            tally.record::<()>(&Err(e));
            continue;
        }
        rss.reset()?;
        let out = guarded(|| w.run());
        peaks.push(rss.peak_mib()?);
        tally.record(&out.and_then(|out| w.check_counters(&out)));
    }
    Ok(peaks)
}

/// Alternates untraced and traced calls for `budget`, pushing per-layer
/// samples and the tracing overhead (`overhead_metric`: how much longer
/// the traced call took, in percent).
pub fn measure_traced<W: Workload>(
    w: &W,
    budget: Duration,
    overhead_metric: &'static str,
    trace: &mut Trace,
    samples: &mut Samples,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let mut iter = 0u32;
    while iter == 0 || start.elapsed() < budget {
        let plain = w.before_call().and_then(|()| {
            let t0 = Instant::now();
            let out = guarded(|| w.run())?;
            let wall = t0.elapsed();
            w.check_counters(&out)?;
            Ok(wall)
        });
        tally.record(&plain);
        let traced = w.before_call().and_then(|()| {
            let (out, wall) = guarded(|| w.run_traced(trace, iter, samples))?;
            w.check_counters(&out)?;
            trace.check_nesting()?;
            Ok(wall)
        });
        tally.record(&traced);
        if let (Ok(plain), Ok(traced)) = (plain, traced) {
            let overhead = traced.as_secs_f64() / plain.as_secs_f64() - 1.0;
            sample(samples, overhead_metric, overhead * 100.0);
        }
        iter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_and_errors_count_as_failures() {
        let mut tally = Tally::default();
        tally.record(&guarded(|| -> Result<(), String> { panic!("boom") }));
        tally.record(&guarded(|| -> Result<(), String> { Err("bad".into()) }));
        tally.record(&guarded(|| Ok(1)));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }

    #[test]
    fn p95_metrics_reduce_to_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(reduce("x.ms", &v), 50.5);
        assert!(reduce("x.ms_p95", &v) > 94.0);
    }
}
