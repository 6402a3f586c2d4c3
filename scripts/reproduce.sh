#!/usr/bin/env bash
# Regenerate every artifact of the reproduction:
#   - the full test suite (shape assertions per experiment),
#   - every table/figure via the repro binary (text + JSON),
#   - the Criterion benches (wall-clock corroboration).
#
# Results land in ./reproduction-output/.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=reproduction-output
mkdir -p "$OUT"

echo "== tests =="
cargo test --workspace 2>&1 | tee "$OUT/test_output.txt" | grep -E "test result" | tail -5

echo "== experiments (text) =="
cargo run --release -p mapro-bench --bin repro -- --metrics "$OUT/metrics.json" \
    | tee "$OUT/experiments.txt" | grep '############'

echo "== experiments (json) =="
for e in table1 fig4 fig4queue size control monitor theorem1 templates cache scaling joins faults; do
    cargo run --release -p mapro-bench --bin repro -- --experiment "$e" --json \
        | sed '1,/############/d' > "$OUT/$e.json"
done

echo "== phase attribution (E18) =="
# Span-trace phase attribution across the six instrumented workloads,
# plus the full-session Chrome trace (open in ui.perfetto.dev).
cargo run --release -p mapro-bench --bin repro -- --experiment phases \
    --trace "$OUT/phases-trace.json" > "$OUT/phases.txt"
cargo run --release -p mapro-bench --bin repro -- --experiment phases --json \
    | sed '1,/############/d' > "$OUT/phases.json"

echo "== symbolic equivalence engine (E17) =="
# Symbolic vs enumerative equivalence across the feasibility boundary.
# Timings are machine-dependent; the digest column (diagram node counts,
# verdicts, counterexamples) is deterministic at any thread count — CI
# diffs it across MAPRO_THREADS settings.
cargo run --release -p mapro-bench --bin repro -- --experiment symscale --json \
    | sed '1,/############/d' > "$OUT/symscale.json"

echo "== decision diagrams at width (E21) =="
# Hash-consed decision diagrams across the width boundary, plus the lint
# liveness sweep. Timings are machine-dependent; the digest columns
# (joint bits, node counts, verdicts, unknown counts) are deterministic
# at any thread count — CI diffs them across MAPRO_THREADS settings.
cargo run --release -p mapro-bench --bin repro -- --experiment ddscale --json \
    | sed '1,/############/d' > "$OUT/ddscale.json"

echo "== perf-regression diff (advisory) =="
# Compare the fresh runs against the committed references *before*
# refreshing them, so an unexpected drift is visible in the log. The
# hard gate is CI's bench-regression job; here a diff only warns.
python3 scripts/bench_diff.py "$OUT" \
    || echo "bench_diff: fresh results differ from committed BENCH_*.json (references updated below)"
# The fault sweep runs on the channel's virtual clock under a fixed seed,
# so its JSON is bit-reproducible — keep the committed references in sync.
cp "$OUT/faults.json" BENCH_faults.json
cp "$OUT/symscale.json" BENCH_symbolic.json
cp "$OUT/ddscale.json" BENCH_dd.json

echo "== benches =="
cargo bench --workspace 2>&1 | tee "$OUT/bench_output.txt" | grep -E "^(table1|fig4|encoding|classifier|normalize)/" || true

echo "done; see $OUT/"
