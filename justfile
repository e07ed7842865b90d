# Local dev targets mirroring .github/workflows/ci.yml step-for-step, so
# local runs and CI cannot drift. `just ci` is the full gate.

# Full CI gate: everything the workflow runs, in the same order.
ci: fmt-check clippy build test perfbench-test doc smoke stream-smoke tiles-smoke examples-smoke pipeline-smoke fold-smoke stress bench-smoke perfbench-smoke clean-tree

# Format the whole workspace in place.
fmt:
    cargo fmt --all

# CI's format gate (check only).
fmt-check:
    cargo fmt --all --check

# CI's lint gate.
clippy:
    cargo clippy --locked --workspace --all-targets -- -D warnings

# Release build of every crate.
build:
    cargo build --locked --release --workspace

# Full test suite: unit, integration, property and doc tests.
test:
    cargo test --locked -q --workspace

# The repository benchmark's own tests (its separate workspace), so a
# public-API change that breaks the benchmark fails the gate.
perfbench-test:
    cargo test --locked --manifest-path perfbench/Cargo.toml

# CI's rustdoc gate: every public item documented, no broken links.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps --workspace

# Run the quickstart example end to end.
smoke:
    cargo run --locked --release --example quickstart

# Run the streaming (ccl-stream) example end to end.
stream-smoke:
    cargo run --locked --release --example stream_components

# Run the tile-grid spill (ccl-tiles) example end to end.
tiles-smoke:
    cargo run --locked --release --example tiles_outofcore

# Run the four remaining examples end to end (the Netpbm round-trip
# writes its images under target/).
examples-smoke:
    cargo run --locked --release --example pipeline_netpbm
    cargo run --locked --release --example document_components
    cargo run --locked --release --example landcover_analysis
    cargo run --locked --release --example scaling_demo

# Run the prefetch/pipeline (ccl-pipeline) example and a quick
# pipeline_demo sweep end to end.
pipeline-smoke:
    cargo run --locked --release --example pipeline_prefetch
    cargo run --locked --release -p ccl-bench --bin pipeline_demo -- --reps 1 --json /tmp/BENCH_pipeline_smoke.json

# Fused accumulation vs the whole-image oracle (region_properties +
# hole count + brute-force perimeter): strip + tile analyzers,
# synchronous + pipelined, 1 and 4 threads, records compared field by
# field. Fast enough for every push.
fold-smoke:
    cargo run --locked --release -p ccl-bench --bin fold_smoke

# Compile all eight criterion benches without running them.
bench-smoke:
    cargo bench --locked --no-run --workspace

# Run each perfbench workload for 1 s with its full-size oracle check.
# perfbench exits 0 on an incorrect run, so the verdict on its last
# line is checked. Run files go to the ignored .perfbench/.
perfbench-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    for w in paremsp_nlcd strip_pbm_analyze tiles_spill_nlcd; do
      out=$(cargo run --release --quiet --offline --locked --manifest-path perfbench/Cargo.toml -- --workload "$w" --seed 1 --seconds 1 --trace 0)
      echo "$out"
      echo "$out" | tail -n 1 | grep -q '"correct": true'
    done

# CI's last gate: fails when any step above left tracked or unignored
# files behind (run it on a committed tree).
clean-tree:
    git status --porcelain
    test -z "$(git status --porcelain)"

# Run the criterion benches (shim harness; CCL_BENCH_MS bounds per-bench time).
bench:
    cargo bench --workspace

# Reproduce the paper's tables and figures (synthetic datasets); JSON
# goes to the git-ignored results/.
repro:
    cargo run --release -p ccl-bench --bin repro_all

# The three full-scale acceptance runs (~80 s in release): the
# residency bounds and whole-image equivalence of the out-of-core stack.
stress: stream-stress tiles-stress pipeline-stress

# Full-scale streaming acceptance run: 268 Mpixel in 1024-row bands,
# analysis identical to whole-image AREMSP, <= 2 bands resident.
stream-stress:
    cargo test --locked --release -p ccl-stream --test stream_equivalence -- --ignored

# Full-scale tile-grid acceptance run: 100 Mpixel in 512x512 tiles with
# spill-to-disk output, <= 2 tile rows resident, exact reconstruction —
# synchronous and pipelined.
tiles-stress:
    cargo test --locked --release -p ccl-tiles --test tiles_equivalence -- --ignored

# Full-scale staged-pipeline run: 67 Mpixel through the composed
# decode ∥ scan ∥ merge stack, <= 2 tile rows + carry resident, analysis
# identical to whole-image AREMSP.
pipeline-stress:
    cargo test --locked --release -p ccl-pipeline --test pipeline_equivalence -- --ignored
