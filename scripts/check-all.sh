#!/usr/bin/env sh
# Consolidated gate runner: clippy, every crate's tests, the benchmark
# crate's release build and tests, every `experiments -- gate NAME`, the
# perf steps that are not gates, explain and chaos — in that order, never aborting
# early, so one invocation reports every status. Appends ONE
# coflow-ledger/1 verdict record (gate `check-all`) carrying one status
# per step, prints a pass/fail summary table, and exits nonzero if any
# step failed.
#
# Each gate appends its own run record and `gate-NAME` verdict record, so
# the ledger shows both the fine-grained history and the consolidated
# roll-up.
#
# Optional regression diff against the last green ledger record:
#   CHECK_ALL_DIFF=1 scripts/check-all.sh          # diff green..latest
#   DIFF_TOLERANCE=0.2 CHECK_ALL_DIFF=1 scripts/check-all.sh
#
# Usage:
#   scripts/check-all.sh
set -u
cd "$(dirname "$0")/.."

GATES="perf mem pins scale tournament"
RESULTS=""

# step NAME COMMAND...: runs the command and records NAME=pass|fail.
step() {
    name="$1"
    shift
    echo ""
    echo "=== $name ==="
    if "$@"; then
        RESULTS="$RESULTS $name=pass"
    else
        RESULTS="$RESULTS $name=fail"
    fi
}

# bench_cargo SUBCOMMAND: runs a cargo subcommand on the benchmark crate,
# which builds against the library crates by path. Only a benchmark
# change commits its lock file: the rewrite a build makes is undone.
bench_cargo() {
    lock=$(mktemp)
    cp benchmark/Cargo.lock "$lock"
    cargo "$1" --release --offline -q --manifest-path benchmark/Cargo.toml
    status=$?
    cp "$lock" benchmark/Cargo.lock
    rm -f "$lock"
    return "$status"
}

# The perf steps that are not gates: the checkpoint/resume differential
# at full pin scale (every pin cell interrupted at every decision epoch
# must finish on the committed BENCH_pins.json bits), and the kernel
# micro-benchmarks, whose CRITERION_JSON samples inform but never gate.
perf_steps() {
    cargo test --release -q -p coflow-bench --test checkpoint_differential -- --ignored &&
        CRITERION_JSON="${CRITERION_JSON:-kernels_bench.jsonl}" \
            cargo bench -q -p coflow-bench --bench kernels -- --bench
}

# experiments SUBCOMMAND...: the release experiments binary.
experiments() {
    cargo run --release -q -p coflow-bench --bin experiments -- "$@"
}

step clippy sh scripts/check-clippy.sh
# The root package's `cargo test` covers only its own tests; this runs
# every crate's unit, integration and property tests.
step tests cargo test --workspace -q --offline
# A change to a public type the benchmark uses must still compile it; its
# tests check that every workload still schedules, verifies and repeats
# bit for bit on the benchmark's own path.
step bench-build bench_cargo build
step bench-tests bench_cargo test
for gate in $GATES; do
    step "$gate" experiments gate "$gate"
done
step perf-steps perf_steps
# One fault run covers the clean grid too: it recomputes every cell, and
# at `--severity info` any clean firing fails, while the fault section
# must fire the starvation detector. Each run checks its own report.
step explain experiments explain --faults 0.1 --expect-starvation --severity info
# The harness panics on any broken invariant (bit-identical resume,
# demand conservation, monotone progress, surviving demand completes).
step chaos experiments chaos --kills 3

OVERALL=pass
set --
for r in $RESULTS; do
    [ "${r#*=}" = "pass" ] || OVERALL=fail
    set -- "$@" --verdict "$r"
done

# One consolidated verdict record, best-effort: the ledger must not fail
# the run.
experiments verdict --gate check-all --status "$OVERALL" "$@" || true

echo ""
echo "step        status"
echo "----------  ------"
for r in $RESULTS; do
    printf '%-10s  %s\n' "${r%%=*}" "${r#*=}"
done
echo "----------  ------"
printf '%-10s  %s\n' overall "$OVERALL"

if [ "${CHECK_ALL_DIFF:-0}" = "1" ]; then
    echo ""
    echo "=== diff vs last green record ==="
    set -- diff green latest
    if [ -n "${DIFF_TOLERANCE:-}" ]; then
        set -- "$@" --tolerance "$DIFF_TOLERANCE"
    fi
    experiments "$@" || OVERALL=fail
fi

[ "$OVERALL" = "pass" ]
