//! Process-level probes from `/proc`: CPU time and peak resident memory.

use std::fs;
use std::path::PathBuf;

/// Kernel clock ticks per second for the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 in the Linux ABI on every mainstream
/// architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process, all threads included
/// (threads that have exited are folded into the process totals).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cpu time unavailable: /proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat)
}

fn parse_cpu_seconds(stat: &str) -> Result<f64, String> {
    // The command name (field 2) may hold spaces, so count fields from
    // the last ')': state is field 3, utime 14 and stime 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("cpu time unavailable: malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "cpu time unavailable: malformed /proc/self/stat".to_string())
    };
    Ok(tick(14 - 3)? + tick(15 - 3)?)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use std::os::raw::c_int;

    extern "C" {
        /// Releases free memory of every malloc arena to the kernel.
        fn malloc_trim(pad: usize) -> c_int;
        /// Sets an allocator parameter.
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }

    /// `M_MMAP_THRESHOLD` in glibc's `malloc.h`.
    const M_MMAP_THRESHOLD: c_int = -3;
    /// `M_TRIM_THRESHOLD` in glibc's `malloc.h`.
    const M_TRIM_THRESHOLD: c_int = -1;

    pub fn release_free_heap() {
        // SAFETY: `malloc_trim` takes a plain byte count, only touches the
        // allocator's own state under the allocator's locks, and may be
        // called from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }

    /// Sets the mmap threshold, and the trim threshold to twice it as
    /// glibc's adaptive code does when it raises the former; setting
    /// either turns the adaptation off.
    pub fn set_mmap_threshold(bytes: c_int) {
        // SAFETY: `mallopt` takes two plain integers, only updates the
        // allocator's parameters under the allocator's locks, and may be
        // called at any time; an out-of-range value is rejected, not UB.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, bytes);
            mallopt(M_TRIM_THRESHOLD, 2 * bytes);
        }
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
use glibc::release_free_heap;

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Allocator mode for measuring peak memory: glibc's mmap threshold at its
/// initial 128 KiB, so every large block is mapped when allocated and
/// unmapped when freed and resident memory tracks live memory. With the
/// adaptive threshold the peak flips between modes (e.g. 44 vs 60 MiB on
/// `strip_pbm_analyze`) depending on the order of earlier frees.
pub fn track_live_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    glibc::set_mmap_threshold(128 << 10);
}

/// Allocator mode for timing: glibc's mmap threshold at its 32 MiB
/// ceiling and the trim threshold at 64 MiB, the state its adaptive
/// thresholds reach in a long-running process, so band- and tile-sized
/// buffers reuse the heap. Timing in the live-memory mode would add
/// 10–25% of page faults to the strip and tile workloads, and a trim
/// threshold left at its 128 KiB default costs the tile workload ~20%.
pub fn reuse_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    glibc::set_mmap_threshold(32 << 20);
}

/// Peak resident set size of the process since the last reset: `VmHWM`
/// from the status file, reset by writing `5` to `clear_refs`.
#[derive(Debug, Clone)]
pub struct PeakRss {
    clear_refs: PathBuf,
    status: PathBuf,
}

impl PeakRss {
    /// The probe on this process's own `/proc` files.
    pub fn current_process() -> PeakRss {
        PeakRss::at("/proc/self/clear_refs", "/proc/self/status")
    }

    /// A probe on explicit files (tests point it at missing ones).
    pub fn at(clear_refs: impl Into<PathBuf>, status: impl Into<PathBuf>) -> PeakRss {
        PeakRss {
            clear_refs: clear_refs.into(),
            status: status.into(),
        }
    }

    /// Returns free heap memory to the kernel, then resets the
    /// high-water mark to the current resident size, so a reading does
    /// not depend on what earlier calls left cached in the allocator.
    /// Without the reset a reading would include set-up's peak, so a
    /// missing `clear_refs` makes the metric unavailable rather than wrong.
    pub fn reset(&self) -> Result<(), String> {
        release_free_heap();
        fs::write(&self.clear_refs, "5").map_err(|e| {
            format!(
                "peak RSS unavailable: cannot reset through {}: {e}",
                self.clear_refs.display()
            )
        })
    }

    /// High-water mark in MiB since the last [`PeakRss::reset`].
    pub fn peak_mib(&self) -> Result<f64, String> {
        let status = fs::read_to_string(&self.status).map_err(|e| {
            format!(
                "peak RSS unavailable: cannot read {}: {e}",
                self.status.display()
            )
        })?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .filter(|&kib| kib > 0)
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| {
                format!(
                    "peak RSS unavailable: no VmHWM in {}",
                    self.status.display()
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_counted_from_the_last_paren() {
        let stat = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_cpu_seconds(stat), Ok(3.0));
        assert!(parse_cpu_seconds("garbage").is_err());
        assert!(cpu_seconds().unwrap() >= 0.0);
    }

    #[test]
    fn peak_rss_is_unavailable_not_zero_without_clear_refs() {
        let probe = PeakRss::at("/nonexistent/clear_refs", "/proc/self/status");
        let err = probe.reset().unwrap_err();
        assert!(err.contains("unavailable"), "{err}");
        let missing = PeakRss::at("/nonexistent/clear_refs", "/nonexistent/status");
        let err = missing.peak_mib().unwrap_err();
        assert!(err.contains("unavailable"), "{err}");
    }

    #[test]
    fn peak_rss_reset_and_read_on_this_process() {
        let probe = PeakRss::current_process();
        probe.reset().unwrap();
        let before = probe.peak_mib().unwrap();
        assert!(before > 0.0);
        // Touch 64 MiB: the high-water mark must rise by about that much.
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let after = probe.peak_mib().unwrap();
        assert!(after >= before + 60.0, "before {before} after {after}");
        drop(block);
        probe.reset().unwrap();
        assert!(probe.peak_mib().unwrap() < after - 60.0);
    }
}
