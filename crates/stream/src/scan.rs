//! The scan stage — everything that happens to a band or tile row before
//! its carry merge. A strip band is a tile row with one tile, so
//! [`scan_tile_row`] serves [`StripLabeler`](crate::StripLabeler) and the
//! `ccl-tiles` grid labeler alike.
//!
//! PAREMSP's structure (disjoint provisional-label ranges per row chunk,
//! boundary rows merged afterwards) applies in two dimensions:
//!
//! * **work units** — each tile is cut into `⌈threads / tiles⌉` row
//!   chunks by [`partition_rows`]: PAREMSP inside a band with one tile,
//!   one unit per tile once there are at least as many tiles as threads.
//!   The units are split into at most `threads` contiguous **worker
//!   runs**; a run scans its units with one consecutive label range and
//!   accumulates each unit's partial [`Accum`] table right after its
//!   scan, while the pixels are hot. Probes read raw pixels, never
//!   another unit's labels, so workers never synchronize.
//! * **seams** — chunk-boundary rows merge with [`merge_seam`], the
//!   columns between adjacent tiles with [`merge_seam_strided`] directly
//!   over the per-tile buffers; in parallel mode across the workers with
//!   the paper's locked MERGER (Algorithm 8, [`LockedMerger`]).
//!
//! One thread scans into a single RemSP store ([`BandUf::Seq`]), more
//! share a [`ConcurrentParents`] array ([`BandUf::Par`]). Carried ids
//! occupy the low slots `1..=carry_cap`; the carry seam is the merge
//! stage's ([`crate::merge`]), which lets the pipelined executor scan one
//! band ahead.

use std::ops::Range;

use ccl_core::par::{partition_rows, Chunk, MergerStore};
use ccl_core::scan::{merge_seam, merge_seam_strided, scan_two_line, split_spans};
use ccl_image::BinaryImage;
use ccl_unionfind::par::{ConcurrentParents, LockedMerger};
use ccl_unionfind::{EquivalenceStore, RemSP, UnionFind};

use crate::analysis::Accum;
use crate::labeler::StripConfig;
use crate::merge::{BandUf, ScannedRows};

/// One scanned tile row's labels: per-tile buffers (row-major within
/// each tile), left to right. A strip band is the one-tile case.
#[derive(Debug, Default)]
pub struct TileLabels {
    /// Per-tile widths.
    pub widths: Vec<usize>,
    /// Per-tile global column offsets.
    pub x0s: Vec<usize>,
    /// Per-tile label buffers.
    pub bufs: Vec<Vec<u32>>,
}

/// A row chunk of tile `tile`, labeled into `labels` (that slice of the
/// tile's buffer). The chunk's label offset is unused: a worker run
/// labels its units consecutively.
struct Unit<'a> {
    tile: usize,
    chunk: Chunk,
    labels: &'a mut [u32],
}

/// A seam inside a tile row: row `row` of `tile` against the row above
/// (a chunk boundary), or `tile`'s first column against the previous
/// tile's last.
enum Seam {
    Rows { tile: usize, row: usize },
    Columns { tile: usize },
}

/// The scan stage: scans every tile of a row with chunk-local semantics,
/// merges every seam inside the row, and returns the per-tile labels
/// with the partial accumulator tables. See the module docs.
///
/// `tiles` are left to right and must share one height (callers
/// validate the shape). Nothing here depends on the carried boundary
/// row except the reserved low label slots: carried ids occupy
/// `1..=carry_cap`, row labels start at `carry_cap + 1`. The synchronous
/// labelers pass the exact open-component count, the pipelined executor
/// the width bound [`carry_bound`](crate::merge::carry_bound). `r0` is
/// the global row of the tile row's first line (partial accumulators
/// hold global coordinates).
pub fn scan_tile_row(
    tiles: &[BinaryImage],
    cfg: &StripConfig,
    carry_cap: u32,
    r0: usize,
) -> ScannedRows {
    let th = tiles.first().map_or(0, BinaryImage::height);
    debug_assert!(tiles.iter().all(|t| t.height() == th), "ragged tile row");
    let widths: Vec<usize> = tiles.iter().map(BinaryImage::width).collect();
    let width: usize = widths.iter().sum();
    if th == 0 || width == 0 {
        return ScannedRows::empty(th);
    }
    let x0s: Vec<usize> = (0..tiles.len()).map(|t| widths[..t].iter().sum()).collect();
    let threads = cfg.threads.max(1);
    let mut bufs: Vec<Vec<u32>> = widths.iter().map(|&tw| vec![0u32; tw * th]).collect();

    let mut units = Vec::new();
    let mut seams = Vec::new();
    for (t, buf) in bufs.iter_mut().enumerate() {
        if t > 0 {
            seams.push(Seam::Columns { tile: t });
        }
        let mut rest = buf.as_mut_slice();
        for chunk in partition_rows(th, widths[t], threads.div_ceil(tiles.len())) {
            if chunk.rows.start > 0 {
                seams.push(Seam::Rows {
                    tile: t,
                    row: chunk.rows.start,
                });
            }
            let (labels, tail) =
                std::mem::take(&mut rest).split_at_mut(chunk.num_rows() * widths[t]);
            rest = tail;
            units.push(Unit {
                tile: t,
                chunk,
                labels,
            });
        }
    }

    // Contiguous worker runs, each with one label range: the sum of its
    // units' PAREMSP capacities.
    let mut runs = Vec::new();
    let mut first = carry_cap + 1;
    let spans = split_spans(units.len(), threads);
    let mut units = units.into_iter();
    for span in spans {
        let run: Vec<Unit> = units.by_ref().take(span.len()).collect();
        let cap: u32 = run.iter().map(|u| u.chunk.label_capacity).sum();
        runs.push((first, run));
        first += cap;
    }
    let slots = first as usize;

    let (uf, tables) = if threads == 1 {
        let mut store = RemSP::with_capacity(slots);
        for id in 0..=carry_cap {
            store.new_label(id);
        }
        let tables: Vec<_> = runs
            .into_iter()
            .map(|(first, run)| scan_run(tiles, &x0s, r0, first, run, 0, &mut store))
            .collect();
        merge_seams(&seams, &bufs, &widths, th, &mut store);
        (BandUf::Seq(store), tables)
    } else {
        let parents = ConcurrentParents::new(slots);
        let mut store = parents.chunk_store();
        for id in 1..=carry_cap {
            store.new_label(id);
        }
        let mut tables = vec![Default::default(); runs.len()];
        rayon::scope(|s| {
            for (i, ((first, run), out)) in runs.into_iter().zip(&mut tables).enumerate() {
                // The first run's table also covers labels 0..first, so
                // it becomes the row's table without a copy.
                let table_base = if i == 0 { 0 } else { first };
                let (parents, x0s) = (&parents, &x0s);
                s.spawn(move |_| {
                    let mut store = parents.chunk_store();
                    *out = scan_run(tiles, x0s, r0, first, run, table_base, &mut store);
                });
            }
        });
        let merger = LockedMerger::new();
        rayon::scope(|s| {
            for span in split_spans(seams.len(), threads) {
                let (parents, merger, seams, bufs, widths) =
                    (&parents, &merger, &seams, &bufs, &widths);
                s.spawn(move |_| {
                    let mut store = MergerStore::new(parents, merger);
                    merge_seams(&seams[span], bufs, widths, th, &mut store);
                });
            }
        });
        (BandUf::Par(parents), tables)
    };

    let used = tables.iter().map(|(labels, _)| labels.clone()).collect();
    let mut tables = tables.into_iter();
    let (_, mut partials) = tables.next().expect("at least one run");
    for (labels, parts) in tables {
        partials.resize(labels.start as usize, Accum::EMPTY);
        partials.extend_from_slice(&parts);
    }
    let row = |r: usize| {
        let mut row = Vec::with_capacity(width);
        for (buf, &tw) in bufs.iter().zip(&widths) {
            row.extend_from_slice(&buf[r * tw..(r + 1) * tw]);
        }
        row
    };
    ScannedRows {
        h: th,
        top: row(0),
        last: row(th - 1),
        labels: TileLabels { widths, x0s, bufs },
        uf,
        partials,
        used,
    }
}

/// Scans one worker run: its units in order with consecutive labels from
/// `first`, each unit's partials accumulated right after its scan.
/// Returns the labels used and their partials, indexed from `table_base`.
fn scan_run<S: EquivalenceStore>(
    tiles: &[BinaryImage],
    x0s: &[usize],
    r0: usize,
    first: u32,
    run: Vec<Unit>,
    table_base: u32,
    store: &mut S,
) -> (Range<u32>, Vec<Accum>) {
    let mut next = first;
    let mut parts = vec![Accum::EMPTY; (first - table_base) as usize];
    for unit in run {
        let tile = &tiles[unit.tile];
        next = scan_two_line(tile, unit.chunk.rows.clone(), unit.labels, store, next);
        parts.resize((next - table_base) as usize, Accum::EMPTY);
        accumulate(tiles, &unit, x0s[unit.tile], r0, table_base, &mut parts);
    }
    (first..next, parts)
}

/// Accumulates one unit's partials: every foreground pixel folds its
/// single-pixel accumulator into `parts[label - base]`. Neighbour probes
/// read raw pixels — the rows above the unit and the adjacent tiles' edge
/// columns included — so the result never depends on another unit's
/// labels, which may not exist yet. The row's global first line is
/// skipped: its upper neighbours are the carry row, which the merge stage
/// absorbs in O(width).
fn accumulate(
    tiles: &[BinaryImage],
    unit: &Unit,
    x0: usize,
    r0: usize,
    base: u32,
    parts: &mut [Accum],
) {
    let tile = &tiles[unit.tile];
    let tw = tile.width();
    let left = tiles[..unit.tile].last().filter(|l| l.width() > 0);
    let right = tiles.get(unit.tile + 1).filter(|r| r.width() > 0);
    let last_col = |t: &BinaryImage, r: usize| t.row(r)[t.width() - 1] == 1;
    for r in unit.chunk.rows.start.max(1)..unit.chunk.rows.end {
        let lr = r - unit.chunk.rows.start;
        let labels = &unit.labels[lr * tw..(lr + 1) * tw];
        let (cur, up) = (tile.row(r), tile.row(r - 1));
        let west0 = left.is_some_and(|lt| last_col(lt, r));
        let nw0 = left.is_some_and(|lt| last_col(lt, r - 1));
        let ne_end = right.is_some_and(|rt| rt.row(r - 1)[0] == 1);
        for c in 0..tw {
            let l = labels[c];
            if l == 0 {
                continue;
            }
            let (west, nw) = if c > 0 {
                (cur[c - 1] == 1, up[c - 1] == 1)
            } else {
                (west0, nw0)
            };
            let ne = if c + 1 < tw { up[c + 1] == 1 } else { ne_end };
            parts[(l - base) as usize].absorb(r0 + r, x0 + c, west, nw, up[c] == 1, ne);
        }
    }
}

/// Merges `seams` over the finished per-tile label buffers.
fn merge_seams<S: EquivalenceStore>(
    seams: &[Seam],
    bufs: &[Vec<u32>],
    widths: &[usize],
    th: usize,
    store: &mut S,
) {
    for seam in seams {
        match *seam {
            Seam::Rows { tile, row } => {
                let (buf, tw) = (&bufs[tile], widths[tile]);
                merge_seam(
                    &buf[(row - 1) * tw..row * tw],
                    &buf[row * tw..(row + 1) * tw],
                    store,
                );
            }
            Seam::Columns { tile } => {
                let lw = widths[tile - 1];
                merge_seam_strided(
                    &bufs[tile - 1][lw - 1..],
                    lw,
                    &bufs[tile],
                    widths[tile],
                    th,
                    store,
                );
            }
        }
    }
}
