//! Offline shim for the subset of
//! [criterion](https://crates.io/crates/criterion) this workspace uses:
//! `criterion_group!`/`criterion_main!`, benchmark groups with the usual
//! knobs, `Bencher::iter`, `BenchmarkId` and `Throughput`.
//!
//! Instead of criterion's statistical machinery, each benchmark runs a
//! short fixed loop (1 warm-up iteration, then until ~`CCL_BENCH_MS`
//! milliseconds — default 200 — or 25 iterations, whichever first) and
//! prints the mean wall time, plus derived throughput when configured.
//! Good enough to catch bench bit-rot and give ballpark numbers; use real
//! criterion for publishable measurements. See `shims/README.md`.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group: a function name plus a
/// parameter rendering.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }
}

/// Input volume processed per iteration, for derived throughput lines.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes per iteration.
    Bytes(u64),
    /// Elements per iteration.
    Elements(u64),
}

/// Measurement state handed to the benchmark closure.
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

fn budget() -> Duration {
    let ms = std::env::var("CCL_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200u64);
    Duration::from_millis(ms)
}

const MAX_ITERS: u64 = 25;

impl Bencher {
    /// Times repeated calls of `f`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f()); // warm-up, not timed
        let budget = budget();
        let start = Instant::now();
        loop {
            black_box(f());
            self.iters += 1;
            self.elapsed = start.elapsed();
            if self.elapsed >= budget || self.iters >= MAX_ITERS {
                break;
            }
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the target sample count (accepted, ignored by the shim).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the measurement time (accepted, ignored by the shim; use the
    /// `CCL_BENCH_MS` env var to change the shim's budget).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Sets the warm-up time (accepted, ignored by the shim).
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Sets the throughput used for derived rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::default();
        f(&mut b, input);
        let mean = if b.iters > 0 {
            b.elapsed / u32::try_from(b.iters).unwrap_or(u32::MAX)
        } else {
            Duration::ZERO
        };
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) if mean > Duration::ZERO => {
                let gib = n as f64 / mean.as_secs_f64() / (1u64 << 30) as f64;
                format!("  {gib:8.3} GiB/s")
            }
            Some(Throughput::Elements(n)) if mean > Duration::ZERO => {
                let melem = n as f64 / mean.as_secs_f64() / 1e6;
                format!("  {melem:8.3} Melem/s")
            }
            _ => String::new(),
        };
        println!(
            "{}/{}/{}  mean {:>12.3?}  ({} iters){rate}",
            self.name, id.function, id.parameter, mean, b.iters
        );
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _criterion: self,
        }
    }
}

/// Declares a group function running the listed benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the listed groups (for `harness = false`
/// bench targets).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(10)
            .measurement_time(Duration::from_millis(1))
            .throughput(Throughput::Bytes(1024));
        group.bench_with_input(BenchmarkId::new("sum", 64), &64u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_macro_and_bencher_run() {
        std::env::set_var("CCL_BENCH_MS", "1");
        benches();
    }
}
