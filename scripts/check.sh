#!/usr/bin/env bash
# CI entry point. Usage: scripts/check.sh [mode] [extra ctest args...]
#
#   plain  build + full ctest in the default configuration
#   asan   rebuild under AddressSanitizer+UBSan, full ctest
#   tsan   rebuild under ThreadSanitizer, concurrency + thread-cache +
#          epoch-reclaim + transfer-cache + access-monitor + telemetry +
#          striped-counter + fault-soak + crash-recovery + lease +
#          daemon-client-poller + standing-denial + tenant-QoS/fairness
#          suites (the multi-threaded ones — TSan's point)
#   crash  plain build, then the multi-process crash-recovery suite and the
#          seeded SMD fairness-invariant suite looped with a rotating
#          SOFTMEM_FAULT_SEED (a failing iteration prints the seed; replay
#          with SOFTMEM_FAULT_SEED=<n>). Iteration count defaults to 20;
#          SOFTMEM_CRASH_ITERS overrides it (the nightly workflow runs 200).
#   all    (default) run plain, then asan, then tsan
#
# Each mode uses its own build directory so they can be cached separately.
# If ccache is installed it is used as the compiler launcher in every mode.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

usage() {
  sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
}

MODE=all
if [[ $# -gt 0 ]]; then
  case "$1" in
    plain|asan|tsan|crash|all) MODE="$1"; shift ;;
    -h|--help) usage; exit 0 ;;
    -*) ;;  # no mode given; everything is extra ctest args
    *)
      echo "check.sh: unknown mode '$1'" >&2
      usage >&2
      exit 2
      ;;
  esac
fi

CMAKE_EXTRA=()
if command -v ccache >/dev/null 2>&1; then
  CMAKE_EXTRA+=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_plain() {
  echo "==> plain build"
  cmake -B build -S . ${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"} >/dev/null
  cmake --build build -j "${JOBS}"
  echo "==> plain ctest"
  ctest --test-dir build --output-on-failure -j "${JOBS}" "$@"
}

run_asan() {
  echo "==> asan+ubsan build"
  cmake -B build-asan -S . -DSOFTMEM_SANITIZE=address,undefined \
        ${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"} >/dev/null
  cmake --build build-asan -j "${JOBS}"
  echo "==> asan+ubsan ctest"
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=0" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}" "$@"
}

run_tsan() {
  echo "==> tsan build"
  cmake -B build-tsan -S . -DSOFTMEM_SANITIZE=thread \
        ${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"} >/dev/null
  cmake --build build-tsan -j "${JOBS}"
  echo "==> tsan ctest (concurrency, crash recovery, leases, fault-soak)"
  # die_after_fork=0: the crash suite forks real client processes from the
  # gtest parent; TSan's default is to abort any multi-threaded fork, but the
  # harness only forks while the parent is single-threaded (see
  # tests/process_harness.h) and the children _exit without running TSan-
  # instrumented teardown.
  TSAN_OPTIONS="halt_on_error=1:die_after_fork=0" \
    ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
          -R "Concurrency|StripedCounter|ThreadCache|EpochReclaim|TransferCache|AccessMonitor|AccessAwareReclaim|FaultStressSoak|Telemetry|CrashRecovery|SmdLease|DegradedMode|DaemonClientPoller|StandingDenial|EventLoop|Uring|SmdFairness|TenantQos" "$@"
}

run_crash() {
  local iters="${SOFTMEM_CRASH_ITERS:-20}"
  echo "==> crash-recovery + fairness loop (${iters} iterations, rotating fault seed)"
  cmake -B build -S . ${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"} >/dev/null
  cmake --build build -j "${JOBS}" --target crash_recovery_test smd_fairness_test
  local base_seed iter
  base_seed="${SOFTMEM_FAULT_SEED:-20260806}"
  for iter in $(seq 1 "${iters}"); do
    local seed=$((base_seed + iter))
    echo "==> crash iteration ${iter}/${iters} (SOFTMEM_FAULT_SEED=${seed})"
    SOFTMEM_FAULT_SEED="${seed}" \
      ctest --test-dir build --output-on-failure \
            -R "CrashRecovery|SmdFairness" "$@" || {
        echo "crash iteration ${iter} FAILED; replay with" \
             "SOFTMEM_FAULT_SEED=${seed} ctest --test-dir build" \
             "-R 'CrashRecovery|SmdFairness'" >&2
        return 1
      }
  done
}

case "${MODE}" in
  plain) run_plain "$@" ;;
  asan)  run_asan "$@" ;;
  tsan)  run_tsan "$@" ;;
  crash) run_crash "$@" ;;
  all)   run_plain "$@"; run_asan "$@"; run_tsan "$@" ;;
esac

echo "==> checks passed (${MODE})"
