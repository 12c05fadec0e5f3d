#!/usr/bin/env bash
# Bench regression gate: run the five micro benches with fresh
# observability reports and gate each against the run registry's
# per-metric median with `lscatter-obs regress` — the one reference a
# micro-bench run is gated against (DESIGN.md §7, §11). A metric the
# median has and the fresh run lacks (renamed or dropped) always fails;
# histogram quantile regressions fail past regress's thresholds (p50
# +25%, p90/p99 +150%), because absolute timings vary by machine.
# --smoke restricts the gate to schema drift — the mode scripts/check.sh
# and CI run. A young registry (< 2 prior runs of a bench) passes with a
# note; it never blocks.
#
# Every gated run is then recorded to the registry (regress BEFORE
# record, so a fresh run never biases its own baseline), stamped with
# the git sha/dirty flag computed here — bench binaries and the CLI
# never shell out to git themselves.
#
# Usage: scripts/bench_gate.sh [--smoke] [--no-record] [build-dir]
#   --smoke      schema-drift check only (no timing thresholds)
#   --no-record  gate only; do not append to the run registry
# Env: BENCH_GATE_KEEP_DIR=<dir> keeps the fresh reports and Chrome
# traces there instead of a temp dir — CI uploads it on failure.
# LSCATTER_OBS_REGISTRY overrides the registry path (default:
# .lscatter/registry.jsonl at the repo root).
# Exits non-zero if any bench drifts or regresses.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
smoke=0
record=1
build="$repo/build"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1 ;;
    --no-record) record=0 ;;
    *) build="$1" ;;
  esac
  shift
done

benches=(bench_micro_rx bench_micro_dsp bench_micro_pool bench_micro_obs bench_soak_day)

# A fresh clone has no build tree yet: configure it on first use.
[[ -f "$build/CMakeCache.txt" ]] || cmake -B "$build" -S "$repo"
cmake --build "$build" -j "$jobs" --target "${benches[@]}" lscatter-obs

obs="$build/tools/lscatter-obs"
registry="${LSCATTER_OBS_REGISTRY:-$repo/.lscatter/registry.jsonl}"

# Provenance for the registry: computed once here, passed down. Benches
# see it via env (bench_common.hpp reads LSCATTER_GIT_SHA/_DIRTY).
git_sha="$(git -C "$repo" rev-parse HEAD 2>/dev/null || echo "")"
git_dirty=0
if [[ -n "$git_sha" ]] && \
   ! git -C "$repo" diff --quiet HEAD -- 2>/dev/null; then
  git_dirty=1
fi
export LSCATTER_GIT_SHA="$git_sha"
export LSCATTER_GIT_DIRTY="$git_dirty"

if [[ -n "${BENCH_GATE_KEEP_DIR:-}" ]]; then
  tmp="$BENCH_GATE_KEEP_DIR"
  mkdir -p "$tmp"
else
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
fi

gate_args=()
[[ "$smoke" == 1 ]] && gate_args+=(--schema-only)

fail=0
for bench in "${benches[@]}"; do
  bench_args=()
  case "$bench" in
    bench_micro_pool) bench_args=(--drops=4 --subframes=2) ;;
    bench_micro_obs) bench_args=(--iters=200000) ;;
    # Soak smoke: a thin 24h day (8 subframes/hour). The
    # zero-allocation and CRC gates stay armed (they are deterministic);
    # the realtime gate is disabled — CI machine timing is gated against
    # the registry median below, like every other metric.
    bench_soak_day) bench_args=(--sph=8 --min-realtime=0) ;;
    *) bench_args=(--benchmark_min_time=0.05) ;;
  esac

  fresh="$tmp/$bench.json"
  # The gate reads metric names + quantiles only, so export the fresh
  # run without its span dump and bucket arrays. The Chrome trace rides
  # along for failure triage when the keep dir is set.
  # LSCATTER_OBS_REGISTRY is blanked so a BenchReport bench can't
  # self-record before this script's regress — the fresh run must never
  # feed its own median baseline.
  LSCATTER_OBS_JSON="$fresh" LSCATTER_OBS_SPANS=0 LSCATTER_OBS_BUCKETS=0 \
    LSCATTER_OBS_TRACE="$tmp/$bench.trace.json" LSCATTER_OBS_REGISTRY= \
    "$build/bench/$bench" "${bench_args[@]}" > /dev/null

  echo "== bench_gate: $bench vs the run-registry median =="
  if ! "$obs" regress "$fresh" --registry "$registry" "${gate_args[@]}"; then
    fail=1
  fi

  # Record after gating so this run never feeds its own median baseline.
  if [[ "$record" == 1 ]]; then
    "$obs" record "$fresh" --registry "$registry" \
      --sha "$git_sha" --dirty "$git_dirty" --threads "$jobs"
  fi
done

if [[ "$fail" != 0 ]]; then
  echo "bench_gate: FAIL (see findings above)" >&2
  exit 1
fi
echo "bench_gate: all benches clean"
