#!/usr/bin/env bash
# Appends the C++ benches' results of one build tree (each BENCH_*.json
# line the tier-1 benches write) to the committed bench/bench_history.jsonl,
# stamped with the source revision and the host's vCPU count, so the
# timing floors (bench_archive, bench_parallel_refresh, ...) keep a history
# across runs instead of being overwritten in build/.
#
#   ctest --test-dir build --output-on-failure -j4
#   tools/bench_history.sh [BUILD_DIR] [LABEL]
#
# BUILD_DIR defaults to build; it may belong to another checkout (say, the
# parent commit of an A/B), whose revision is then the one recorded: its
# git sha when the tracked files match HEAD, else a digest of their
# contents ("tree-<16 hex>"). LABEL (optional) names the run.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$(cd "${1:-build}" && pwd)"
label="${2:-}"

source_dir="$(git -C "$build" rev-parse --show-toplevel)"
if git -C "$source_dir" diff --quiet HEAD -- 2>/dev/null; then
  rev="$(git -C "$source_dir" rev-parse --short=12 HEAD)"
else
  rev="tree-$(cd "$source_dir" && git ls-files -z | xargs -0 sha256sum |
    sha256sum | cut -c1-16)"
fi
cpus="$(nproc 2>/dev/null || echo 0)"
stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

shopt -s nullglob
files=("$build"/BENCH_*.json "$build"/bench/BENCH_*.json)
if [ "${#files[@]}" -eq 0 ]; then
  echo "bench_history: no BENCH_*.json under $build" >&2
  exit 1
fi
for file in "${files[@]}"; do
  while IFS= read -r line; do
    [ -n "$line" ] || continue
    printf '{"rev":"%s","nproc":%s,"at":"%s","label":"%s","result":%s}\n' \
      "$rev" "$cpus" "$stamp" "$label" "$line"
  done < "$file"
done >> bench/bench_history.jsonl
echo "bench_history: appended ${#files[@]} file(s) at $rev"
