#!/usr/bin/env bash
# Smoke run and exact count gate for one of the repository benchmark's
# workloads (default pod_overload), both at seed 1.
#
# First a short untraced run. The benchmark binary exits 0 even when ops
# fail their checks, so this fails unless the result (the last output
# line) reports "correct": true.
#
# Then a traced run, whose counts repeat exactly per seed. Every
# per-layer metric not derived from host time (units other than s and
# ns, less the host-time ratios below), plus the result's attempted and
# failed op counts, must equal scripts/expected/<workload>_seed1.json.
# On a mismatch every moved key is printed with its expected and fresh
# value. The fresh counts are always written to
# target/expected/<workload>_seed1.json: a change that moves a count on
# purpose commits a copy of that file and explains every moved count in
# CHANGES.md.
#
#   bash scripts/perfbench_smoke.sh [workload]
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:-pod_overload}"
bench() {
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace "$1" | tail -n 1
}

last=$(bench 0)
echo "$last"
if [[ "$last" != *'"correct": true'* ]]; then
    echo "perfbench smoke: $workload result is not correct" >&2
    exit 1
fi

expected="scripts/expected/${workload}_seed1.json"
fresh="target/expected/${workload}_seed1.json"
mkdir -p "$(dirname "$fresh")"
bench 1 | jq -S '{attempted, failed} + (.metrics | with_entries(
    select(.value.unit != "s" and .value.unit != "ns" and (.key | IN(
        "pod.cost_exponent", "cluster.parallel_efficiency",
        "cluster.pod_imbalance", "trace.overhead") | not))
    | .value |= .value))' >"$fresh"

if [[ ! -f "$expected" ]]; then
    echo "perfbench smoke: no $expected (fresh counts are in $fresh)" >&2
    exit 1
fi
moved=$(jq -rn --slurpfile old "$expected" --slurpfile new "$fresh" '
    $old[0] as $o | $new[0] as $n | ($o + $n | keys[]) as $k
    | select($o[$k] != $n[$k]) | "  \($k): \($o[$k]) -> \($n[$k])"')
if [[ -n "$moved" ]]; then
    echo "perfbench smoke: $workload seed-1 counts moved against $expected:" >&2
    echo "$moved" >&2
    echo "fresh counts are in $fresh" >&2
    exit 1
fi
echo "perfbench smoke: $workload seed-1 counts match $expected ($(jq length "$fresh") keys)"
