#!/usr/bin/env bash
# Builds and runs the unit-test suite under ASan, UBSan and TSan.
#
#   tools/run_sanitized_tests.sh            # all three sanitizers
#   tools/run_sanitized_tests.sh asan       # one of them
#
# Uses the asan/ubsan/tsan presets from CMakePresets.json (build trees
# build-asan/, build-ubsan/ and build-tsan/). The asan/ubsan test presets
# run every gtest label — "unit", "robustness", "fused", "obs", "serve",
# "simd", "ranking", "pool" and "eval" — with halt_on_error, so each test
# runs once per sanitizer; they skip the end-to-end CLI/tool smoke tests,
# whose sanitized runtimes are excessive, and the "bench" checks of the
# benchmark harness, which builds its own unsanitized worker. The tsan
# preset runs only the concurrency-heavy "serve", "obs", "pool", "eval",
# "fused", "simd" and "ranking" labels: worker-thread handoffs, per-user
# scoring tasks (catalog stage one included) and batched sub-batch
# forwards on the kernel pool, pool-run candidate generation, admission
# blocking/shedding, shutdown promise sweeps, the lock-free metrics
# registry, the thread pool itself, the Adam step and gradient clip
# ("pool" holds the optimizer suite), and the attention and AVX2 Gemm
# kernels that training still splits across the pool.
# `ctest --preset <name> -N` lists each preset's tests.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
[[ $# -eq 0 ]] && presets=(asan ubsan tsan)

for preset in "${presets[@]}"; do
  echo "==== ${preset}: configure + build ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "==== ${preset}: ctest ===="
  ctest --preset "${preset}"
done
