#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs `perf` with the given
# arguments. With flags only, the command is `run`, so the driver's
#   bash perf/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
# is `perf run …`. Every failure is one line on stderr:
#   7  the build failed (dependencies do not resolve, or a compile error)
#   8  the build did not finish within 840 seconds
# Any other code is `perf`'s own (see perf/README.md).
set -u

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ ! -d "$here/../crates" ]; then
    echo "perf/run.sh: build failed: no product crates next to perf/ (expected $here/../crates); nothing to benchmark" >&2
    exit 7
fi
target="${CARGO_TARGET_DIR:-$here/target}"
log="$target/perf-build.log"
mkdir -p "$target"

# No registry in the sandbox: never wait on it.
export CARGO_NET_RETRY=0 CARGO_NET_OFFLINE=true
timeout 840 \
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    >"$log" 2>&1
status=$?
if [ "$status" -eq 124 ]; then
    echo "perf/run.sh: build timed out (log: $log)" >&2
    exit 8
elif [ "$status" -ne 0 ]; then
    echo "perf/run.sh: build failed: $(grep -m1 '^error' "$log" || echo "cargo exited $status") (log: $log)" >&2
    exit 7
fi

PERF_RUSTC_VERSION="$(rustc --version 2>/dev/null || echo unknown)"
export PERF_RUSTC_VERSION
case "${1:-}" in
    --*) set -- run "$@" ;;
esac
exec "$target/release/perf" "$@"
