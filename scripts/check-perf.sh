#!/usr/bin/env sh
# The perf steps that are not gates. The gates themselves (perf, mem,
# pins, scale, tournament) run as `experiments -- gate NAME`, which
# scripts/check-all.sh loops over.
#
#   * the checkpoint/resume differential at full pin scale: every pin
#     cell is interrupted at every decision epoch, checkpointed, restored
#     and must finish on the committed BENCH_pins.json bits;
#   * the kernel micro-benchmarks, with CRITERION_JSON so their samples
#     land next to the reports for forensics; they inform, never gate.
#
# On exit, a coflow-ledger/1 verdict record is appended (best-effort) so
# `experiments -- report` shows the step's history.
#
# Usage:
#   scripts/check-perf.sh
set -eu
cd "$(dirname "$0")/.."

STATUS=fail
append_verdict() {
    cargo run --release -q -p coflow-bench --bin experiments -- \
        verdict --gate check-perf --status "$STATUS" >/dev/null 2>&1 || true
}
trap append_verdict EXIT

cargo test --release -q -p coflow-bench --test checkpoint_differential -- --ignored

CRITERION_JSON="${CRITERION_JSON:-kernels_bench.jsonl}" \
    cargo bench -q -p coflow-bench --bench kernels -- --bench

STATUS=pass
