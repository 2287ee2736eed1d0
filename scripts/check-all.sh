#!/usr/bin/env sh
# Consolidated gate runner: clippy, every crate's tests, the benchmark
# crate's release build, every `experiments -- gate NAME`, the perf steps
# that are not gates (check-perf.sh), explain and chaos — in that order,
# never aborting early, so one invocation reports every status. Appends
# ONE coflow-ledger/1 verdict record (gate `check-all`) carrying one
# status per step, prints a pass/fail summary table, and exits nonzero if
# any step failed.
#
# Each gate appends its own run record and `gate-NAME` verdict record,
# and each check-*.sh script its own verdict record, so the ledger shows
# both the fine-grained history and the consolidated roll-up.
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

# The benchmark crate builds against the library crates by path, so a
# change to a public type it uses must still compile it. Only a benchmark
# change commits its lock file: the rewrite a build makes is undone.
bench_build() {
    lock=$(mktemp)
    cp benchmark/Cargo.lock "$lock"
    cargo build --release --offline -q --manifest-path benchmark/Cargo.toml
    built=$?
    cp "$lock" benchmark/Cargo.lock
    rm -f "$lock"
    return "$built"
}

step clippy sh scripts/check-clippy.sh
# The root package's `cargo test` covers only its own tests; this runs
# every crate's unit, integration and property tests.
step tests cargo test --workspace -q --offline
step bench-build bench_build
for gate in $GATES; do
    step "$gate" cargo run --release -q -p coflow-bench --bin experiments -- gate "$gate"
done
step perf-steps sh scripts/check-perf.sh
step explain sh scripts/check-explain.sh
step chaos sh scripts/check-chaos.sh

OVERALL=pass
set --
for r in $RESULTS; do
    [ "${r#*=}" = "pass" ] || OVERALL=fail
    set -- "$@" --verdict "$r"
done

# One consolidated verdict record; best-effort like the per-step traps.
cargo run --release -q -p coflow-bench --bin experiments -- \
    verdict --gate check-all --status "$OVERALL" "$@" || true

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
    cargo run --release -q -p coflow-bench --bin experiments -- "$@" || OVERALL=fail
fi

[ "$OVERALL" = "pass" ]
