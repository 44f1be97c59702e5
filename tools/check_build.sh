#!/usr/bin/env bash
# Builds and tests the three supported configurations so they cannot bit-rot
# independently:
#   build        Release, full ctest suite
#   build-asan   AddressSanitizer, full ctest suite
#   build-tsan   ThreadSanitizer, executor / parallel / worker-pool tests
#                (the threaded code paths; the full suite under tsan's 5-15x
#                slowdown adds runtime without adding thread coverage)
#
# Usage: tools/check_build.sh [--jobs N]
# Exits non-zero on the first configuration that fails to build or test.
#
# MOTTO_FUZZ_ITERS scales the differential-verification suites (ctest label
# `verify`: the plan and churn differs and the CCL round-trip fuzz; the
# crash-recovery differ, also labelled `verify`, scales with
# MOTTO_RECOVERY_FUZZ_ITERS). It is exported through to the test binaries,
# so e.g.
#   MOTTO_FUZZ_ITERS=2000 tools/check_build.sh
# turns the default quick pass into a nightly-depth sweep in all three
# configurations. Unset, the suites use their built-in defaults
# (40 differential cases per seed, 10k round-trip queries); a value that
# is not a positive integer fails the suites instead of being ignored.
#
# Other useful ctest labels (all part of the full suite this script runs):
#   ctest -L explain   optimizer-observability suite alone (plan inspector,
#                      probe traces, calibration; DESIGN.md §11)
#   ctest -L verify    the three differs alone: plans, churn and crash
#                      recovery (DESIGN.md §10, §14.3, §15.4)
#   ctest -L shard     sharded data-parallel runtime alone (partition plans,
#                      replica equivalence, randomized sharded-vs-single
#                      stress; DESIGN.md §12)
#   ctest -L order     selectivity-ordered evaluation alone (order planner
#                      math + plan annotation; DESIGN.md §13). The lazy
#                      *matcher* is covered by matcher_test/MatcherStress/
#                      ShardedStress/DifferentialTest, so it runs under both
#                      sanitizer slices below too.
#   ctest -L churn     online query churn alone (incremental re-optimization,
#                      state-migration round-trips, and the fuzzed
#                      migration-equivalence differ; DESIGN.md §14)
#   ctest -L serve     `motto serve` alone (wire-format codec, durable
#                      checkpoints, crash-recovery differ, SIGKILL smoke;
#                      DESIGN.md §15). MOTTO_RECOVERY_FUZZ_ITERS scales the
#                      recovery differ's fuzzed kill-plan cases the same way
#                      MOTTO_FUZZ_ITERS scales the plan differ.
set -euo pipefail

cd "$(dirname "$0")/.."

# Build trees must never be committed: this script creates three of them, and
# a tracked binary under build*/ silently bloats every clone. Fails before
# building so the offending paths are the first thing printed.
if tracked="$(git ls-files | grep -E '^build')"; then
  echo "error: build artifacts are tracked in git:" >&2
  echo "${tracked}" >&2
  echo "fix: git rm -r --cached <paths above>" >&2
  exit 1
fi

JOBS="$(nproc 2>/dev/null || echo 2)"
if [[ "${1:-}" == "--jobs" ]]; then
  JOBS="$2"
fi

# Telemetry contract first: docs/METRICS.md must match the registered metric
# names before anything builds (the same lint runs in ctest as
# check_metrics, but failing here is faster).
python3 tools/check_metrics.py
# Every `motto <command> --flag` in the docs and test scripts must be in the
# command's flag table (also ctest check_cli_docs). It reads
# `motto <command> --help`, so the CLI is built first; the Release
# configuration below reuses that build.
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}" --target motto_cli
python3 tools/check_cli_docs.py build/tools/motto

# ObsEngineTest covers the instrumented executors (metrics shards + trace
# sink under the worker pool), so it belongs in the threaded tsan slice.
# DifferentialTest drives every fuzzed case through ParallelExecutor with
# tiny batches, which is the densest cross-thread traffic in the suite.
# ShardedExecutor/ShardedStress run JQP replicas concurrently on the worker
# pool (one mutable Executor per shard, merge on the caller thread) — the
# data-parallel counterpart of the pipelined traffic above.
# ChurnStress cross-checks every fuzzed oracle through the sharded executor,
# so its migration cases also exercise the worker pool.
# IngestQueue (wire_format_test) is the serve front-end's producer/consumer
# handoff — blocking, shedding and Close are all cross-thread; the
# ServeRecovery differ runs the sharded executor per fuzzed case too.
# StatusServer scrapes /metrics and /statusz from responder threads while an
# engine thread ingests and publishes snapshots — the live-telemetry
# reader/writer handoff (DESIGN.md §16).
TSAN_FILTER='WorkerPool|ParallelExecutor|ParallelStress|ExecutorTest|MatcherStress|ObsEngineTest|TraceTest|DifferentialTest|ShardedExecutor|ShardedStress|ChurnStress|WireFormat|IngestQueue|ServeRecovery|StatusServer'

run_config() {
  local dir="$1" sanitize="$2" test_filter="$3"
  echo "=== ${dir} (MOTTO_SANITIZE='${sanitize}') ==="
  # Sanitized configs keep optimization (RelWithDebInfo) so the instrumented
  # suites stay fast enough to run routinely; empty build type falls back to
  # the top-level Release default.
  cmake -B "${dir}" -S . -DMOTTO_SANITIZE="${sanitize}" \
    -DCMAKE_BUILD_TYPE=${sanitize:+RelWithDebInfo} >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  if [[ -n "${test_filter}" ]]; then
    (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" -R "${test_filter}")
  else
    (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
  fi
}

run_config build "" ""
# The three differs at a depth below 4 cases, where a skip budget of
# iterations / 4 would be 0; the sweeps allow one skip there.
(cd build && MOTTO_FUZZ_ITERS=3 ctest --output-on-failure -j "${JOBS}" -L verify)
run_config build-asan address ""
run_config build-tsan thread "${TSAN_FILTER}"

echo "All configurations passed."
