#!/usr/bin/env bash
# Builds the benchmark (its own workspace) and the product's own
# peb_worker (root workspace), then runs the benchmark binary with the
# arguments given. Everything is built from source in this checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# CARGO_TARGET_DIR, when set, is shared by both workspaces; otherwise
# each builds into its own target/.
bench_target="${CARGO_TARGET_DIR:-$here/target}"
root_target="${CARGO_TARGET_DIR:-$root/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p peb-fleet --bin peb_worker >&2

exec "$bench_target/release/peb_benchmark" \
    --bench-dir "$here" --worker-bin "$root_target/release/peb_worker" "$@"
