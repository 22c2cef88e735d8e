#!/usr/bin/env bash
# Builds the benchmark (release, offline, into benchmark/target unless
# CARGO_TARGET_DIR says otherwise) and runs it from the repo root.
#
#   benchmark/run.sh [--seed N] [--smoke] [--only <workload>] [--traced]
#       every workload untraced (with --traced: then every workload
#       traced, with the layer probes); one result file in benchmark/out/
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload; the last line of standard output is the result
#   benchmark/run.sh compare <a.json> <b.json>
#       verdict per workload and end-to-end metric; non-zero on "worse"
#   benchmark/run.sh manifest | describe
#       prints BENCHMARK.json, or the workload and metric tables as
#       markdown, from the benchmark's own tables
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/benchmark"
case "${1:-}" in
    compare | manifest | describe) exec "$bin" "$@" ;;
    *) exec "$bin" --out "$here/out" "$@" ;;
esac
