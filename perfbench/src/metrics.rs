//! The metrics the benchmark prints, with the layer each per-layer
//! metric measures and the end-to-end metric it should move.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// An end-to-end metric, printed by every untraced run.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end metrics, in print order.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "throughput_mpix_s",
        unit: "Mpix/s",
    },
    EndToEnd {
        name: "cpu_ms_per_mpix",
        unit: "ms/Mpix",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
    },
    EndToEnd {
        name: "resident_rows_peak",
        unit: "rows",
    },
    EndToEnd {
        name: "success_rate",
        unit: "ratio",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
];

/// A per-layer metric, printed by every traced run.
pub struct Layer {
    /// Metric name; the prefix names the crate (layer) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Workload the metric is measured on.
    pub workload: &'static str,
    /// End-to-end metric a change to this layer should move there.
    pub moves: &'static str,
}

const CORE: &str = "paremsp_nlcd";
const STRIP: &str = "strip_pbm_analyze";
const TILES: &str = "tiles_spill_nlcd";
const THPT: &str = "throughput_mpix_s";

macro_rules! layers {
    ($($name:literal $unit:literal $workload:ident $moves:expr;)*) => {
        /// The per-layer metrics, in print order.
        pub const PER_LAYER: &[Layer] = &[
            $(Layer { name: $name, unit: $unit, workload: $workload, moves: $moves },)*
        ];
    };
}

layers! {
    "core.wall_ms" "ms" CORE THPT;
    "core.scan_ms" "ms" CORE THPT;
    "core.merge_ms" "ms" CORE THPT;
    "core.flatten_ms" "ms" CORE THPT;
    "core.relabel_ms" "ms" CORE THPT;
    "core.other_ms" "ms" CORE THPT;
    "core.t1_mpix_s" "Mpix/s" CORE THPT;
    "core.speedup_vs_1t" "x" CORE THPT;
    "core.components" "count" CORE "none (deterministic work counter)";
    "core.label_slots" "count" CORE "none (deterministic work counter)";
    "image.decode_busy_ms" "ms" STRIP "cpu_ms_per_mpix; throughput_mpix_s only if decode stops being hidden";
    "image.decode_mb_s" "MB/s" STRIP "cpu_ms_per_mpix; throughput_mpix_s only if decode stops being hidden";
    "pipeline.consumer_wait_ms" "ms" STRIP THPT;
    "pipeline.band_interval_ms_p50" "ms" STRIP THPT;
    "pipeline.band_interval_ms_p95" "ms" STRIP THPT;
    "pipeline.bands" "count" STRIP "none (deterministic work counter)";
    "stream.wall_ms" "ms" STRIP THPT;
    "stream.engine_ms" "ms" STRIP THPT;
    "stream.emit_ms" "ms" STRIP THPT;
    "stream.records" "count" STRIP "none (deterministic work counter)";
    "stream.components" "count" STRIP "none (deterministic work counter)";
    "stream.peak_resident_rows" "rows" STRIP "resident_rows_peak";
    "tiles.wall_ms" "ms" TILES THPT;
    "tiles.source_ms" "ms" TILES THPT;
    "tiles.labeler_ms" "ms" TILES THPT;
    "tiles.row_ms_p50" "ms" TILES THPT;
    "tiles.row_ms_p95" "ms" TILES THPT;
    "tiles.spill_tile_ms" "ms" TILES THPT;
    "tiles.spill_close_ms" "ms" TILES THPT;
    "tiles.spill_mb_s" "MB/s" TILES THPT;
    "tiles.finish_ms" "ms" TILES THPT;
    "tiles.tile_rows" "count" TILES "none (deterministic work counter)";
    "tiles.components" "count" TILES "none (deterministic work counter)";
    "tiles.spill_bytes" "bytes" TILES "none (deterministic work counter)";
    "tiles.peak_resident_rows" "rows" TILES "resident_rows_peak";
    "trace.paremsp_nlcd.overhead_pct" "%" CORE "none (tracing cost: untraced vs traced throughput)";
    "trace.strip_pbm_analyze.overhead_pct" "%" STRIP "none (tracing cost: untraced vs traced throughput)";
    "trace.tiles_spill_nlcd.overhead_pct" "%" TILES "none (tracing cost: untraced vs traced throughput)";
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`,
    /// read with plain string scanning: names and units hold no quotes
    /// or brackets.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[body.find('[').unwrap() + 1..body.find(']').unwrap()];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present");
            let rest = &obj[at + f.len() + 2..];
            let rest = &rest[rest.find('"').unwrap() + 1..];
            rest[..rest.find('"').unwrap()].to_string()
        };
        body.split('}')
            .filter(|o| o.contains("\"name\""))
            .map(|o| (field(o, "name"), field(o, "unit")))
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    #[test]
    fn printed_end_to_end_metrics_match_benchmark_json() {
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(ours, listed(&benchmark_json(), "end_to_end"));
    }

    #[test]
    fn printed_per_layer_metrics_match_benchmark_json() {
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(ours, listed(&benchmark_json(), "per_layer"));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let json = benchmark_json();
        for w in crate::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn metrics_doc_maps_every_per_layer_metric() {
        let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md"))
            .expect("METRICS.md");
        for l in PER_LAYER {
            assert!(doc.contains(&format!("`{}`", l.name)), "{} missing", l.name);
        }
    }
}
