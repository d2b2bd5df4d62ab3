#!/usr/bin/env bash
# Runs the benchmark with the given arguments, from the repository root.
# Builds it first when the binary is missing or older than a source of
# the benchmark or of the repository's crates; otherwise runs the built
# binary as is. (`cargo run` would rebuild on every call outside a git
# checkout: mahif-serve's build script watches `.git/HEAD`.)
set -euo pipefail
cd "$(dirname "$0")/.."
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/whatif-benchmark"
if [ ! -x "$bin" ] || [ -n "$(find Cargo.toml crates benchmark/Cargo.toml benchmark/src \
        -newer "$bin" \( -name '*.rs' -o -name Cargo.toml \) -print -quit)" ]; then
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
fi
exec "$bin" "$@"
