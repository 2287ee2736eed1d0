#!/usr/bin/env sh
# Lint gate: the workspace must be rustfmt-clean, library code must
# not contain unjustified unwrap()/expect(), and the API docs must build
# without warnings (no broken or private intra-doc links).
# The six library crates (incl. `obs`) opt in via
#   #![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
# so this command fails the build on any new panic-by-default call site
# (tests and benches are exempt through the cfg gate). `--all-targets`
# lints tests, benches and examples too, for every other clippy warning.
#
# On exit, a coflow-ledger/1 verdict record is appended (best-effort) so
# `experiments -- report` shows the gate history.
set -eu
cd "$(dirname "$0")/.."

STATUS=fail
append_verdict() {
    cargo run --release -q -p coflow-bench --bin experiments -- \
        verdict --gate check-clippy --status "$STATUS" >/dev/null 2>&1 || true
}
trap append_verdict EXIT

# `benchmark/` is its own workspace, so `--all` leaves it alone.
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

STATUS=pass
