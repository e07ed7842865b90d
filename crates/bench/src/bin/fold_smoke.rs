//! Fold smoke test — the fused accumulation checked against the
//! whole-image oracle, fast enough for every push (CI's `fold-smoke`
//! step, `just fold-smoke`).
//!
//! Runs the strip and tile-grid analyzers over a few synthetic rasters,
//! synchronous and pipelined, sequential and multi-threaded, and checks
//! every [`ComponentRecord`] **field by field** against whole-image
//! AREMSP + `region_properties` + `count_holes_per_label` + a brute-force
//! 4-edge perimeter, matched by anchor: area, bbox, centroid, perimeter,
//! holes — and the id, which must increase with the raster order of
//! anchors. Any mismatch prints the offending pair and exits non-zero.
//!
//! ```text
//! cargo run --release -p ccl-bench --bin fold_smoke
//! ```

use ccl_core::analysis::{count_holes_per_label, region_properties};
use ccl_core::seq::aremsp;
use ccl_datasets::synth::blobs::{blob_field, BlobParams};
use ccl_datasets::synth::noise::bernoulli;
use ccl_datasets::synth::texture::rings;
use ccl_image::BinaryImage;
use ccl_stream::{
    analyze_stream, analyze_stream_pipelined, ComponentRecord, OwnedMemorySource, StripConfig,
};
use ccl_tiles::{analyze_tiles, analyze_tiles_pipelined, GridSource};

/// One whole-image component: anchor, area, bbox, centroid, perimeter,
/// holes.
type Expected = (
    (usize, usize),
    u64,
    (usize, usize, usize, usize),
    (f64, f64),
    u64,
    u64,
);

/// The oracle's components, sorted by anchor.
fn oracle(img: &BinaryImage) -> Vec<Expected> {
    let labels = aremsp(img);
    let n = labels.num_components() as usize;
    let w = img.width();
    let mut anchor = vec![None; n + 1];
    let mut perimeter = vec![0u64; n + 1];
    for (i, &l) in labels.as_slice().iter().enumerate() {
        if l == 0 {
            continue;
        }
        let (r, c) = (i / w, i % w);
        anchor[l as usize].get_or_insert((r, c));
        perimeter[l as usize] += [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)]
            .iter()
            .filter(|&&(dr, dc)| img.get_or_bg(r as isize + dr, c as isize + dc) == 0)
            .count() as u64;
    }
    let holes = count_holes_per_label(&labels);
    let mut out: Vec<Expected> = region_properties(&labels)
        .into_iter()
        .map(|region| {
            let l = region.label as usize;
            (
                anchor[l].expect("every label has a pixel"),
                region.area as u64,
                region.bbox,
                region.centroid,
                perimeter[l],
                holes[l - 1],
            )
        })
        .collect();
    out.sort_unstable_by_key(|e| e.0);
    out
}

/// Checks `records` against the oracle field by field, reporting the
/// first divergence.
fn check(label: &str, expected: &[Expected], records: &[ComponentRecord]) -> bool {
    if records.len() != expected.len() {
        eprintln!(
            "FAIL {label}: {} components streamed vs {} in the whole image",
            records.len(),
            expected.len()
        );
        return false;
    }
    let mut sorted: Vec<&ComponentRecord> = records.iter().collect();
    sorted.sort_unstable_by_key(|r| r.anchor);
    let mut prev_id = 0;
    for (e, r) in expected.iter().zip(sorted) {
        let fields: [(&str, bool); 7] = [
            ("anchor", r.anchor == e.0),
            ("area", r.area == e.1),
            ("bbox", r.bbox == e.2),
            ("centroid", r.centroid == e.3),
            ("perimeter", r.perimeter == e.4),
            ("holes", r.holes == e.5),
            ("id", r.id > prev_id),
        ];
        if let Some((field, _)) = fields.iter().find(|(_, ok)| !ok) {
            eprintln!("FAIL {label}: `{field}` differs:\n  oracle {e:?}\n  record {r:?}");
            return false;
        }
        prev_id = r.id;
    }
    true
}

fn main() {
    let images: Vec<(&str, BinaryImage)> = vec![
        ("bernoulli", bernoulli(96, 160, 0.5, 11)),
        (
            "blobs",
            blob_field(
                96,
                160,
                BlobParams {
                    coverage: 0.35,
                    min_radius: 1,
                    max_radius: 5,
                },
                7,
            ),
        ),
        ("rings", rings(96, 160, 5.0)),
    ];

    let mut checks = 0usize;
    let mut ok = true;
    for (name, img) in &images {
        let expected = oracle(img);
        for threads in [1usize, 4] {
            let cfg = StripConfig::parallel(threads);
            let strip = || OwnedMemorySource::new(img.clone());
            let grid = || GridSource::from_image(img, 24, 24);
            let strips = [
                ("strip", analyze_stream(&mut strip(), 32, cfg.clone())),
                (
                    "strip-pipelined",
                    analyze_stream_pipelined(&mut strip(), 32, cfg.clone()),
                ),
            ]
            .map(|(mode, run)| (mode, run.expect("in-memory stream").0));
            let grids = [
                ("tiles", analyze_tiles(&mut grid(), cfg.clone())),
                (
                    "tiles-pipelined",
                    analyze_tiles_pipelined(&mut grid(), cfg.clone()),
                ),
            ]
            .map(|(mode, run)| (mode, run.expect("in-memory grid").0));
            for (mode, records) in strips.iter().chain(&grids) {
                ok &= check(&format!("{name} {mode} {threads}t"), &expected, records);
                checks += 1;
            }
        }
    }

    if ok {
        println!(
            "fold-smoke PASS: {checks} analyzer runs match the whole-image oracle field by field"
        );
    } else {
        eprintln!("fold-smoke FAILED");
        std::process::exit(1);
    }
}
