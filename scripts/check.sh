#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite —
# first in the default configuration (plus the bench gate's schema-drift
# smoke check and a run-registry smoke that proves `lscatter-obs regress`
# fails on a dropped metric), then rebuilt under AddressSanitizer +
# UndefinedBehaviorSanitizer (-DLSCATTER_SANITIZE=address,undefined),
# and finally the span-sink and sim-pool stress tests plus the
# lock-order canary alone under ThreadSanitizer
# (-DLSCATTER_SANITIZE=thread; TSan and ASan cannot share a build).
# ctest runs with --timeout 300 (a hung pool must fail, not wedge the
# pipeline) and writes a JUnit XML (ctest-junit.xml in the build dir)
# that CI uploads on failure.
# After the default build it runs the static layer: tools/lscatter-lint
# (project rules: unit suffixes, RNG discipline, float-in-DSP, include
# hygiene, raw-mutex/guarded-mutex lock discipline) always, clang-tidy
# when installed, and a clang -Wthread-safety build
# (-DLSCATTER_THREAD_SAFETY=ON) when clang++ is installed. Locally a
# gcc-only box soft-skips the clang lanes; under CI (the CI env var) a
# missing clang-tidy or clang++ fails loudly so neither lane can become
# a silent no-op.
#
# Usage: scripts/check.sh [--no-sanitize]
# Exits non-zero on the first failure.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
run_sanitized=1
[[ "${1:-}" == "--no-sanitize" ]] && run_sanitized=0

# Required tools up front: a missing cmake must fail here with one clear
# line, not as a bare "command not found" halfway through the pipeline
# (set -o pipefail above makes any later stage's nonzero exit fatal, but
# the message would point at the wrong place).
for tool in cmake ctest; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "check.sh: required tool '$tool' not found in PATH —" \
         "install CMake (provides cmake and ctest) and re-run" >&2
    exit 1
  fi
done

# The SIMD dispatch honors LSCATTER_SIMD in every child process (tests,
# benches, the gate). Announce a forced tier so a scalar-lane log is
# self-describing.
if [[ -n "${LSCATTER_SIMD:-}" ]]; then
  echo "== SIMD tier forced: LSCATTER_SIMD=$LSCATTER_SIMD =="
fi

ctest_args=(--output-on-failure -j "$jobs" --timeout 300
            --output-junit ctest-junit.xml)

echo "== tier-1: default build =="
cmake -B "$repo/build" -S "$repo"
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" "${ctest_args[@]}"

echo "== tier-1: bench gate (schema-drift smoke) =="
"$repo/scripts/bench_gate.sh" --smoke "$repo/build"

echo "== tier-1: run-registry smoke (record / regress / trend) =="
cmake --build "$repo/build" -j "$jobs" --target lscatter-obs \
  bench_micro_dsp
obs="$repo/build/tools/lscatter-obs"
reg="$repo/build/registry-smoke"
rm -rf "$reg" && mkdir -p "$reg"
dsp_report() {  # <out.json> [extra bench flags...]
  LSCATTER_OBS_JSON="$1" LSCATTER_OBS_SPANS=0 LSCATTER_OBS_BUCKETS=0 \
    LSCATTER_OBS_REGISTRY= "$repo/build/bench/bench_micro_dsp" \
    --benchmark_min_time=0.02 "${@:2}" > /dev/null
}
for i in 1 2 3; do
  dsp_report "$reg/run$i.json"
done
# Runs no benchmark case, so it lacks the per-case histograms
# (lte.enodeb.subframe.seconds, ...) that runs 1-3 carry.
dsp_report "$reg/drift.json" --benchmark_filter=NONE
for i in 1 2; do
  "$obs" record "$reg/run$i.json" --registry "$reg/registry.jsonl" \
    --time "$i"
done
# Gate run 3 against runs 1-2 before recording it, as bench_gate.sh
# does. Timings vary by machine, so the smoke regress gates schema only.
"$obs" regress "$reg/run3.json" --registry "$reg/registry.jsonl" \
  --schema-only
# The one gate must fail on dropped metrics: exit 1, not 0 or 2.
rc=0
"$obs" regress "$reg/drift.json" --registry "$reg/registry.jsonl" \
  --schema-only > "$reg/drift.txt" || rc=$?
if [[ "$rc" != 1 ]]; then
  cat "$reg/drift.txt" >&2
  echo "check.sh: regress exited $rc on a report missing metrics" \
       "(want 1)" >&2
  exit 1
fi
"$obs" record "$reg/run3.json" --registry "$reg/registry.jsonl" --time 3
"$obs" trend --registry "$reg/registry.jsonl" --bench bench_micro_dsp
# The reader must skip (and count) a torn/corrupt line, never fail.
printf 'garbage not a record\n' >> "$reg/registry.jsonl"
"$obs" query --registry "$reg/registry.jsonl" --bench bench_micro_dsp \
  | grep -q '3 record(s)'

echo "== static: lscatter-lint =="
cmake --build "$repo/build" -j "$jobs" --target lscatter-lint
"$repo/build/tools/lscatter-lint" "$repo"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== static: clang-tidy =="
  # compile_commands.json is exported by the default configure
  # (CMAKE_EXPORT_COMPILE_COMMANDS ON in CMakeLists.txt).
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p "$repo/build" "$repo/src/.*\.cpp$"
  else
    find "$repo/src" -name '*.cpp' -print0 |
      xargs -0 clang-tidy -quiet -p "$repo/build"
  fi
elif [[ -n "${CI:-}" ]]; then
  # In CI a missing clang-tidy means the lint lane is silently checking
  # nothing — fail loudly instead of shipping a green no-op.
  echo "== static: clang-tidy requested in CI but not installed ==" >&2
  exit 1
else
  echo "== static: clang-tidy not installed; skipped (CI runs it) =="
fi

# Clang thread-safety analysis lane: build-only, promotes the capability
# annotations (core/thread_safety.hpp) to errors. Requires clang — the
# annotations are no-ops under gcc, so there is nothing to check there.
# CI installs clang in every build-test lane, so this is CI's
# thread-safety build; locally it runs whenever clang is around.
if command -v clang++ >/dev/null 2>&1; then
  echo "== static: clang -Wthread-safety build =="
  cmake -B "$repo/build-tsa" -S "$repo" \
    -DCMAKE_CXX_COMPILER=clang++ -DLSCATTER_THREAD_SAFETY=ON
  cmake --build "$repo/build-tsa" -j "$jobs"
elif [[ -n "${CI:-}" ]]; then
  echo "== static: clang++ required in CI but not installed ==" >&2
  exit 1
else
  echo "== static: clang++ not installed; thread-safety lane skipped (CI runs it) =="
fi

if [[ "$run_sanitized" == 1 ]]; then
  echo "== tier-1: ASan + UBSan build =="
  cmake -B "$repo/build-san" -S "$repo" \
    -DLSCATTER_SANITIZE=address,undefined
  cmake --build "$repo/build-san" -j "$jobs"
  ctest --test-dir "$repo/build-san" "${ctest_args[@]}"

  echo "== tier-1: TSan span + sim-pool stress + shared FFT plan cache =="
  cmake -B "$repo/build-tsan" -S "$repo" -DLSCATTER_SANITIZE=thread
  cmake --build "$repo/build-tsan" -j "$jobs" \
    --target test_obs_stress test_core_pool_stress test_dsp_correlate \
      test_core_stream_ring test_core_pipeline test_core_thread_safety
  "$repo/build-tsan/tests/test_obs_stress"
  "$repo/build-tsan/tests/test_core_pool_stress"
  # Lock order is TSan's job (DESIGN.md §13): the canary proves its
  # deadlock detector sees through the lscatter:: wrappers.
  "$repo/build-tsan/tests/test_core_thread_safety"
  # test_dsp_correlate carries the 8-thread fast_correlate determinism
  # test: concurrent readers of the shared_mutex FFT plan cache.
  "$repo/build-tsan/tests/test_dsp_correlate"
  # The streaming lane: the StreamRing SPSC producer/consumer stress and
  # the multi-worker DecodePipeline determinism suite (DESIGN.md §15) —
  # the two places a memory-ordering bug in the ring protocol would show.
  "$repo/build-tsan/tests/test_core_stream_ring"
  "$repo/build-tsan/tests/test_core_pipeline"
fi

echo "== check.sh: all green =="
