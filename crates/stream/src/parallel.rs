//! Parallel in-band scanning — PAREMSP applied *within* one resident band.
//!
//! The band is partitioned row-wise exactly like PAREMSP partitions a
//! whole image ([`ccl_core::par::partition_rows`]); each chunk scans with
//! a disjoint provisional-label range into a shared [`ConcurrentParents`]
//! array whose low slots `1..=carry_cap` are reserved for the carried
//! inter-band labels. Chunk-boundary rows merge in parallel with the
//! configured MERGER (Algorithm 8 or its CAS variant). Every worker also
//! accumulates its chunk's partial [`Accum`] table while the pixels are
//! cache-hot — writes stay contention-free because partials live in the
//! chunk's own disjoint label range.
//!
//! The inter-band carry seam is *not* scanned here: it belongs to the
//! merge stage ([`crate::merge`], through [`carry_seam_parallel`] for
//! bands and tile rows alike), the only per-band work that depends on the
//! previous band — the split that lets the pipelined executor run this
//! scan one band ahead.

use std::ops::Range;

use ccl_core::par::MergerStore;
use ccl_core::scan::{merge_seam, merge_seam_span, scan_two_line, split_spans};
use ccl_image::BinaryImage;
use ccl_unionfind::par::{CasMerger, ConcurrentMerger, ConcurrentParents, LockedMerger};
use ccl_unionfind::EquivalenceStore;

use crate::analysis::Accum;
use crate::labeler::{accumulate_chunk, StripConfig};

/// Scan-stage output: the band's labels, the shared parent array, the
/// partial accumulator table (label-indexed) and the used label ranges.
pub(crate) type ParallelScan = (Vec<u32>, ConcurrentParents, Vec<Accum>, Vec<Range<u32>>);

/// Scans `band` with `cfg.threads` workers. Returns the band's label
/// buffer, the shared parent array (slots `1..=carry_cap` reserved for
/// carried labels, band labels from `carry_cap + 1`), the partial
/// accumulator table (label-indexed) and the label ranges each chunk actually allocated. `r0` is the global row of
/// the band's first row.
pub(crate) fn scan_band_parallel(
    band: &BinaryImage,
    r0: usize,
    carry_cap: u32,
    cfg: &StripConfig,
) -> ParallelScan {
    match cfg.merger {
        ccl_core::par::MergerKind::Locked => {
            let merger = match cfg.lock_stripes {
                Some(s) => LockedMerger::with_stripes(s),
                None => LockedMerger::new(),
            };
            scan_with(band, r0, carry_cap, cfg, &merger)
        }
        ccl_core::par::MergerKind::Cas => scan_with(band, r0, carry_cap, cfg, &CasMerger::new()),
    }
}

/// Merges the inter-band carry seam in column spans across the configured
/// workers (the paper's phase 3, run by the merge stage because it needs
/// the carry row). A span's diagonal probes read the full carry row
/// ([`merge_seam_span`]), so the partition merges exactly the same pairs
/// as one whole-row call.
pub(crate) fn carry_seam_parallel(
    carry: &[u32],
    top: &[u32],
    parents: &ConcurrentParents,
    cfg: &StripConfig,
) {
    match cfg.merger {
        ccl_core::par::MergerKind::Locked => {
            let merger = match cfg.lock_stripes {
                Some(s) => LockedMerger::with_stripes(s),
                None => LockedMerger::new(),
            };
            carry_seam_spans(carry, top, parents, cfg.threads, &merger);
        }
        ccl_core::par::MergerKind::Cas => {
            carry_seam_spans(carry, top, parents, cfg.threads, &CasMerger::new())
        }
    }
}

fn carry_seam_spans<M: ConcurrentMerger>(
    carry: &[u32],
    top: &[u32],
    parents: &ConcurrentParents,
    threads: usize,
    merger: &M,
) {
    let spans = split_spans(carry.len(), threads);
    if spans.len() <= 1 {
        let mut store = MergerStore::new(parents, merger);
        merge_seam(carry, top, &mut store);
        return;
    }
    rayon::scope(|s| {
        for span in spans {
            let parents = &parents;
            s.spawn(move |_| {
                let mut store = MergerStore::new(parents, merger);
                merge_seam_span(carry, top, span, &mut store);
            });
        }
    });
}

fn scan_with<M: ConcurrentMerger>(
    band: &BinaryImage,
    r0: usize,
    carry_cap: u32,
    cfg: &StripConfig,
    merger: &M,
) -> ParallelScan {
    let (w, h) = (band.width(), band.height());
    debug_assert!(w > 0 && h > 0, "caller filters degenerate bands");
    let mut chunks = ccl_core::par::partition_rows(h, w, cfg.threads.max(1));
    for chunk in &mut chunks {
        chunk.label_offset += carry_cap;
    }
    let slots = chunks.last().map_or(carry_cap as usize + 1, |c| {
        (c.label_offset + c.label_capacity) as usize
    });
    let parents = ConcurrentParents::new(slots);
    {
        let mut store = parents.chunk_store();
        for id in 1..=carry_cap {
            store.new_label(id);
        }
    }
    let mut labels = vec![0u32; w * h];
    let mut partials = vec![Accum::EMPTY; slots];
    let mut nexts: Vec<u32> = chunks.iter().map(|c| c.label_offset).collect();

    // Phase 1: disjoint-range chunk scans (contention-free by
    // construction), each accumulating its chunk's partial table in the
    // same worker, right after its scan, while the pixels are hot.
    rayon::scope(|s| {
        let mut rest: &mut [u32] = &mut labels;
        let mut rest_parts: &mut [Accum] = &mut partials[(carry_cap as usize + 1).min(slots)..];
        for (chunk, next_out) in chunks.iter().zip(nexts.iter_mut()) {
            let (mine, tail) = rest.split_at_mut(chunk.num_rows() * w);
            rest = tail;
            let (my_parts, ptail) = rest_parts.split_at_mut(chunk.label_capacity as usize);
            rest_parts = ptail;
            let parents = &parents;
            s.spawn(move |_| {
                let mut store = parents.chunk_store();
                let next = scan_two_line(
                    band,
                    chunk.rows.clone(),
                    mine,
                    &mut store,
                    chunk.label_offset,
                );
                *next_out = next;
                accumulate_chunk(
                    band,
                    mine,
                    chunk.rows.clone(),
                    r0,
                    chunk.label_offset,
                    my_parts,
                );
            });
        }
    });

    // Phase 2: chunk-boundary seams in parallel with the configured merger.
    if chunks.len() > 1 {
        let labels_ref = &labels;
        rayon::scope(|s| {
            for chunk in &chunks[1..] {
                let parents = &parents;
                let r = chunk.rows.start;
                s.spawn(move |_| {
                    let mut store = MergerStore::new(parents, merger);
                    merge_seam(
                        &labels_ref[(r - 1) * w..r * w],
                        &labels_ref[r * w..(r + 1) * w],
                        &mut store,
                    );
                });
            }
        });
    }

    let used = chunks
        .iter()
        .zip(&nexts)
        .map(|(c, &n)| c.label_offset..n)
        .collect();
    (labels, parents, partials, used)
}
