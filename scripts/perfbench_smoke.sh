#!/usr/bin/env bash
# Short untraced run of one of the repository benchmark's workloads
# (default pod_overload). The benchmark binary exits 0 even when ops
# fail their checks, so this fails unless the result (the last output
# line) reports "correct": true.
#
#   bash scripts/perfbench_smoke.sh [workload] [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:-pod_overload}"
last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed "${2:-1}" --seconds 2 --trace 0 | tail -n 1)
echo "$last"
if [[ "$last" != *'"correct": true'* ]]; then
    echo "perfbench smoke: $workload result is not correct" >&2
    exit 1
fi
