//! In-memory spans recorded around calls into the library, and the
//! wrapper type that records them at each trait boundary.
//!
//! A span has a name, the thread lane it ran on, start and end instants,
//! the span that caused it and the iteration (request) it belongs to.
//! A layer's self time is its span's duration minus the part of that
//! interval covered by its child spans. Spans stay in memory until the
//! run ends and are then written out as one tab-separated file.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ccl_image::BinaryImage;
use ccl_stream::{ComponentId, ComponentRecord, ComponentSink, RowSource, StreamError};
use ccl_tiles::{TileMeta, TileSink, TileSource, TilesError};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Iteration (one end-to-end labeling call) the span belongs to.
    pub iter: u32,
    /// Index of the causing span in [`Trace::spans`], if any.
    pub parent: Option<usize>,
    /// Layer boundary, e.g. `tiles.push_row`.
    pub name: &'static str,
    /// Thread lane: `main`, `scanner` or `prefetch`.
    pub thread: &'static str,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
}

impl Span {
    /// Wall duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// The spans of one workload's traced iterations.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    /// Every span recorded so far; a span's id is its index.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace; written offsets count from now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id.
    pub fn span(
        &mut self,
        iter: u32,
        parent: Option<usize>,
        name: &'static str,
        thread: &'static str,
        (start, end): (Instant, Instant),
    ) -> usize {
        self.spans.push(Span {
            iter,
            parent,
            name,
            thread,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Opens a span starting now; [`Trace::close`] sets its end. Lets
    /// children recorded before the span ends name it as their parent.
    pub fn open(
        &mut self,
        iter: u32,
        parent: Option<usize>,
        name: &'static str,
        thread: &'static str,
    ) -> usize {
        let now = Instant::now();
        self.span(iter, parent, name, thread, (now, now))
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Records every interval a [`Timed`] wrapper collected, as children
    /// of `parent`, and empties the wrapper's buffer.
    pub fn adopt(
        &mut self,
        iter: u32,
        parent: Option<usize>,
        name: &'static str,
        thread: &'static str,
        intervals: &mut Vec<(Instant, Instant)>,
    ) {
        for iv in intervals.drain(..) {
            self.span(iter, parent, name, thread, iv);
        }
    }

    /// Direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Duration of span `id` minus the part of its interval that its
    /// direct children cover (overlapping children count once).
    pub fn self_time(&self, id: usize) -> Duration {
        let span = &self.spans[id];
        let intervals: Vec<(Instant, Instant)> =
            self.children(id).map(|c| (c.start, c.end)).collect();
        span.duration()
            .saturating_sub(covered(intervals, span.start, span.end))
    }

    /// Summed durations of the spans named `name` in iteration `iter`.
    pub fn total(&self, iter: u32, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.iter == iter && s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Ids of the spans named `name` in iteration `iter`.
    pub fn ids(&self, iter: u32, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].iter == iter && self.spans[i].name == name)
            .collect()
    }

    /// Checks that every child lies inside its parent's interval, so
    /// self times and child times add up to the parent's wall time.
    pub fn check_nesting(&self) -> Result<(), String> {
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start < parent.start || s.end > parent.end {
                    return Err(format!(
                        "span {} escapes its parent {} (iteration {})",
                        s.name, parent.name, s.iter
                    ));
                }
            }
        }
        Ok(())
    }

    /// Tab-separated dump, one span a line: iteration, id, parent id (or
    /// `-`), thread, name, start and end in nanoseconds since the trace
    /// was created.
    pub fn to_tsv(&self, workload: &str) -> String {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{workload}\t{}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.iter,
                s.thread,
                s.name,
                ns(s.start),
                ns(s.end)
            );
        }
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(mut intervals: Vec<(Instant, Instant)>, lo: Instant, hi: Instant) -> Duration {
    intervals.sort_by_key(|iv| iv.0);
    let mut total = Duration::ZERO;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Wraps a library type and records the interval of every call across
/// its trait boundary: [`RowSource::next_band`],
/// [`TileSource::next_tile_row`], [`ComponentSink::component`] and
/// [`TileSink::tile`]. Intervals are buffered in the wrapper itself, so
/// it can move to another thread (behind a prefetcher) and be read back
/// when the call returns.
pub struct Timed<T> {
    /// The wrapped value.
    pub inner: T,
    /// Intervals recorded since the buffer was last drained.
    pub intervals: Vec<(Instant, Instant)>,
}

impl<T> Timed<T> {
    /// Wraps `inner` with an empty buffer.
    pub fn new(inner: T) -> Timed<T> {
        Timed {
            inner,
            intervals: Vec::new(),
        }
    }

    fn time<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        self.intervals.push((start, Instant::now()));
        r
    }
}

impl<S: RowSource> RowSource for Timed<S> {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn rows_remaining(&self) -> Option<usize> {
        self.inner.rows_remaining()
    }

    fn next_band(&mut self, max_rows: usize) -> Result<Option<BinaryImage>, StreamError> {
        self.time(|s| s.next_band(max_rows))
    }
}

impl<S: TileSource> TileSource for Timed<S> {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn tile_width(&self) -> usize {
        self.inner.tile_width()
    }

    fn tile_height(&self) -> usize {
        self.inner.tile_height()
    }

    fn rows_remaining(&self) -> Option<usize> {
        self.inner.rows_remaining()
    }

    fn next_tile_row(&mut self) -> Result<Option<Vec<BinaryImage>>, TilesError> {
        self.time(|s| s.next_tile_row())
    }
}

impl<C: ComponentSink> ComponentSink for Timed<C> {
    fn component(&mut self, record: &ComponentRecord) {
        self.time(|c| c.component(record))
    }
}

impl<T: TileSink> TileSink for Timed<T> {
    fn merge(&mut self, kept: ComponentId, absorbed: ComponentId) {
        self.inner.merge(kept, absorbed)
    }

    fn tile(&mut self, meta: &TileMeta, gids: &[ComponentId]) -> Result<(), TilesError> {
        self.time(|t| t.tile(meta, gids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(origin: Instant, ms: u64) -> Instant {
        origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let o = Instant::now();
        let mut t = Trace::new();
        let root = t.span(0, None, "root", "main", (at(o, 0), at(o, 100)));
        // Two overlapping children on different lanes cover 10..40 once.
        t.span(0, Some(root), "a", "main", (at(o, 10), at(o, 30)));
        t.span(0, Some(root), "b", "scanner", (at(o, 20), at(o, 40)));
        let c = t.span(0, Some(root), "c", "main", (at(o, 60), at(o, 70)));
        // A grandchild does not count against the root.
        t.span(0, Some(c), "d", "main", (at(o, 61), at(o, 69)));
        assert_eq!(t.self_time(root), Duration::from_millis(60));
        assert_eq!(t.self_time(c), Duration::from_millis(2));
        t.check_nesting().unwrap();
    }

    #[test]
    fn children_never_sum_past_their_parent() {
        let o = Instant::now();
        let mut t = Trace::new();
        let root = t.span(0, None, "root", "main", (at(o, 0), at(o, 50)));
        for k in 0..10 {
            t.span(
                0,
                Some(root),
                "leaf",
                "main",
                (at(o, k * 5), at(o, k * 5 + 5)),
            );
        }
        let covered_by_children = t.spans[root].duration() - t.self_time(root);
        assert!(covered_by_children <= t.spans[root].duration());
        assert_eq!(t.self_time(root), Duration::ZERO);
        assert_eq!(t.total(0, "leaf"), Duration::from_millis(50));
        assert_eq!(t.ids(0, "leaf").len(), 10);
    }

    #[test]
    fn escaping_child_is_reported() {
        let o = Instant::now();
        let mut t = Trace::new();
        let root = t.span(3, None, "root", "main", (at(o, 10), at(o, 20)));
        t.span(3, Some(root), "late", "main", (at(o, 15), at(o, 25)));
        assert!(t.check_nesting().unwrap_err().contains("late"));
        // Clipping keeps self time non-negative even then.
        assert_eq!(t.self_time(root), Duration::from_millis(5));
    }

    #[test]
    fn timed_sink_records_one_interval_per_call() {
        let mut sink = Timed::new(Vec::<ComponentRecord>::new());
        let rec = ComponentRecord {
            id: 1,
            area: 1,
            bbox: (0, 0, 0, 0),
            centroid: (0.0, 0.0),
            anchor: (0, 0),
            perimeter: 4,
            holes: 0,
        };
        sink.component(&rec);
        sink.component(&rec);
        assert_eq!(sink.inner.len(), 2);
        assert_eq!(sink.intervals.len(), 2);
        let mut t = Trace::new();
        t.adopt(0, None, "emit", "main", &mut sink.intervals);
        assert!(sink.intervals.is_empty());
        assert_eq!(t.ids(0, "emit").len(), 2);
        assert_eq!(t.to_tsv("w").lines().count(), 2);
    }
}
