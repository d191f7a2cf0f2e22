#!/usr/bin/env bash
# Short untraced run of the repository benchmark's pod_overload
# workload. The benchmark binary exits 0 even when ops fail their
# checks, so this fails unless the result (the last output line)
# reports "correct": true.
#
#   bash scripts/perfbench_smoke.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload pod_overload --seed "${1:-1}" --seconds 2 --trace 0 | tail -n 1)
echo "$last"
if [[ "$last" != *'"correct": true'* ]]; then
    echo "perfbench smoke: pod_overload result is not correct" >&2
    exit 1
fi
