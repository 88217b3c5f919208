#!/usr/bin/env bash
# Builds and runs the unit-test suite under ASan, UBSan and TSan.
#
#   tools/run_sanitized_tests.sh            # all three sanitizers
#   tools/run_sanitized_tests.sh asan       # one of them
#
# Uses the asan/ubsan/tsan presets from CMakePresets.json (build trees
# build-asan/, build-ubsan/ and build-tsan/); the asan/ubsan test presets
# run the "unit", "robustness", "fused", "obs", "serve", "simd" and
# "ranking" labels, skipping the end-to-end CLI/tool smoke tests whose
# sanitized runtimes are excessive and the "bench" checks of the benchmark
# harness, which builds its own unsanitized worker. The tsan preset runs
# only the concurrency-heavy "serve" and "obs" labels — the memory-safety
# gates add nothing under TSan and its runtime overhead is the largest.
#
# After the unit pass, the "robustness" suite (fault-injection sweeps,
# checkpoint fuzzing, kill/resume determinism) and the "fused" suite
# (fused-attention kernels) are re-run as explicit gates: torn-write
# handling and the hand-written attention backward are exactly where the
# sanitizers catch out-of-bounds reads that a plain run would miss.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("${@:-asan ubsan tsan}")
[[ $# -eq 0 ]] && presets=(asan ubsan tsan)

for preset in "${presets[@]}"; do
  echo "==== ${preset}: configure + build ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "==== ${preset}: ctest (unit) ===="
  ctest --preset "${preset}"
  if [[ "${preset}" == "tsan" ]]; then
    # The tsan test preset already covers its whole scope (serve|obs):
    # worker-thread handoffs, admission blocking/shedding, shutdown
    # promise sweeps and the lock-free metrics registry. The remaining
    # gates are memory-safety sweeps; skip them under TSan.
    continue
  fi
  echo "==== ${preset}: ctest (robustness gate) ===="
  (cd "build-${preset}" && \
   ASAN_OPTIONS="halt_on_error=1" \
   UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
   ctest -L robustness --output-on-failure)
  echo "==== ${preset}: ctest (fused-attention gate) ===="
  (cd "build-${preset}" && \
   ASAN_OPTIONS="halt_on_error=1" \
   UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
   ctest -L fused --output-on-failure)
  echo "==== ${preset}: ctest (observability gate) ===="
  # Concurrent counter/histogram increments from the thread pool are the
  # registry's hot path; running the obs label explicitly under the
  # sanitizers stresses exactly the lock-free parts.
  (cd "build-${preset}" && \
   ASAN_OPTIONS="halt_on_error=1" \
   UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
   ctest -L obs --output-on-failure)
  echo "==== ${preset}: ctest (serving gate) ===="
  # The serving runtime writes embedding rows into long-lived per-user
  # cache buffers, drops and rebuilds them on eviction, and batches
  # concurrent requests through a worker thread — exactly the kind of
  # buffer-reuse and cross-thread handoff the sanitizers exist for; the
  # fuzzed session-store interleavings run here with halt_on_error so any
  # stale-row read fails loudly.
  (cd "build-${preset}" && \
   ASAN_OPTIONS="halt_on_error=1" \
   UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
   ctest -L serve --output-on-failure)
  echo "==== ${preset}: ctest (simd gate) ===="
  # The AVX2 kernels read 8-wide lanes up to an explicitly computed bound
  # with scalar tails — precisely where an off-by-one becomes an
  # out-of-bounds vector load, and (under UBSan) where misaligned or
  # overflowing lane arithmetic would hide. STISAN_SIMD=1 makes the vector
  # paths unconditional even if a future default flips.
  (cd "build-${preset}" && \
   ASAN_OPTIONS="halt_on_error=1" \
   UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
   STISAN_SIMD=1 ctest -L simd --output-on-failure)
  echo "==== ${preset}: ctest (catalog-ranking gate) ===="
  # The two-stage ranker's hot path reuses per-worker query scratch and
  # streams candidate pools through caller-owned buffers across threads;
  # the ranking label re-runs the brute-force property suite and the
  # full-vs-pruned parity checks where a stale span or an off-by-one in
  # the sparse cell map would surface as an out-of-bounds read.
  (cd "build-${preset}" && \
   ASAN_OPTIONS="halt_on_error=1" \
   UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
   ctest -L ranking --output-on-failure)
done
