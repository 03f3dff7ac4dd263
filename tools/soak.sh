#!/usr/bin/env bash
# Flap-storm soak: builds the soak-labeled chaos tests (tests/soak_test.cpp,
# the /v1/stream distribution-plane tests in tests/stream_test.cpp and the
# ingest-loop storm in tests/sharded_test.cpp: sessions flap on the
# collector's ingest thread while merge refreshes run on the analysis pool,
# and sessions write a real segment writer — one I/O worker, no lock — on
# the ingest thread while the control thread reads its manifest generation
# and runs retention) plus the scenario-labeled closed-loop harness
# (tests/scenario_test.cpp: route-leak and sub-prefix-hijack replays
# driving a real gill-collectord over shaped loopback TCP), the archive
# group (tests/archive_test.cpp, tests/query_engine_test.cpp and
# bench_archive: on-disk footer/torn-tail parsing under ASan, the
# query-under-churn race — parallel scans vs sealing vs GC — and 4-client
# concurrent scans under TSan) and the
# parallel group (tests/parallel_test.cpp, tests/metrics_test.cpp and the
# merge plane's refresh tests in tests/sharded_test.cpp: the analysis
# pool, the registry's concurrency smokes and a refresh job held in
# flight while the ingest loop keeps ingesting) under BOTH sanitizer
# configurations and runs them in one invocation:
#
#   1. GILL_SANITIZE=ON      (ASan + UBSan — memory safety under the storm)
#   2. GILL_SANITIZE=thread  (TSan — races in the session/transport layers)
#
# The storm size scales via the environment:
#
#   GILL_SOAK_PEERS=160 GILL_SOAK_ROUNDS=3 tools/soak.sh
#
# Each configuration builds into its own tree (build-soak-asan /
# build-soak-tsan) so the soak never perturbs the main build/ directory.
set -euo pipefail

cd "$(dirname "$0")/.."

: "${GILL_SOAK_PEERS:=120}"
: "${GILL_SOAK_ROUNDS:=3}"
export GILL_SOAK_PEERS GILL_SOAK_ROUNDS

jobs="$(nproc 2>/dev/null || echo 2)"
run_one() {
  local mode="$1" dir="$2"
  echo "=== soak [$mode]: ${GILL_SOAK_PEERS} peers x ${GILL_SOAK_ROUNDS} rounds ==="
  cmake -B "$dir" -S . -DGILL_SANITIZE="$mode" > "$dir.configure.log" 2>&1 \
    || { cat "$dir.configure.log"; return 1; }
  cmake --build "$dir" -j"$jobs" \
    --target soak_test stream_test sharded_test scenario_test bench_scenario \
              archive_test query_engine_test bench_archive \
              parallel_test metrics_test \
              gill-scenariod gill-collectord gill-simulate \
    > "$dir.build.log" 2>&1 \
    || { tail -50 "$dir.build.log"; return 1; }
  # bench_parallel_refresh carries the `parallel` label too; it is the
  # analysis pool's speedup floor and runs in the unsanitized build only.
  (cd "$dir" && ctest -L 'soak|scenario|archive|parallel' \
    -E '^bench_parallel_refresh$' --output-on-failure)
}

run_one ON build-soak-asan
run_one thread build-soak-tsan
echo "=== soak: both sanitizer configurations passed ==="
