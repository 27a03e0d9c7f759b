#!/usr/bin/env bash
# Pre-merge correctness gate: the full build/test matrix described in
# README.md ("Correctness tooling"). Run from the repository root:
#
#   scripts/check.sh              # whole matrix
#   scripts/check.sh release tidy # a subset of the steps
#
# Steps:
#   release  strict-warnings (-Werror) build, ctest twice — plain and with
#            PATHSEP_AUDIT=1 so every deep invariant validator runs
#   asan     AddressSanitizer + UndefinedBehaviorSanitizer build without
#            NDEBUG (so every PATHSEP_DCHECK is evaluated), full ctest
#   tsan     ThreadSanitizer build, ctest -L 'service|parallel|obs|flow' (the
#            concurrent query layer, the parallel construction pipeline, the
#            observability layer's cross-thread recording, and the flow
#            backend's thread-count determinism)
#   obsoff   PATHSEP_OBS_DISABLED build with -Werror — proves every
#            instrumentation call site compiles out cleanly — plus
#            ctest -L obs (the obs suite adapts to the compiled-out mode)
#   perfbench  python3 perfbench/test_checks.py: builds the end-to-end
#            benchmark (perfbench/, which compiles against the library's
#            public API) and runs its tiny clean runs plus the corruption
#            runs each output check must catch. This is the serving
#            round trip: query_server --serve over real sockets, with every
#            wire answer checked against PathOracle::query
#   tsa      Clang Thread Safety Analysis: clang++ build with -Wthread-safety
#            -Werror=thread-safety-analysis over the PATHSEP_GUARDED_BY /
#            PATHSEP_REQUIRES annotations (util/thread_annotations.hpp) —
#            proves the locking contract on every path at compile time
#            (skipped with a notice when clang++ is not installed)
#   lint     builds tools/lint/pathsep_lint and runs it over src/ bench/
#            examples/ (repo-specific rules: rand-source, unordered-iter,
#            hot-path-alloc, dcheck-side-effect, naked-mutex); any finding
#            fails the gate
#   tidy     clang-tidy over src/, tests/ and examples/ via the `tidy`
#            target (no-op with a notice when clang-tidy is not installed)
#
# An unknown step name exits 2 with the list of valid steps.
#
# Every step uses its own CMake preset/binary dir (see CMakePresets.json),
# so the matrix never invalidates an incremental developer build other than
# `build/` itself (the release preset owns that directory).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
ALL_STEPS=(release asan tsan obsoff tsa perfbench lint tidy)
STEPS=("$@")
[ ${#STEPS[@]} -eq 0 ] && STEPS=("${ALL_STEPS[@]}")
for step in "${STEPS[@]}"; do
  case " ${ALL_STEPS[*]} " in
    *" $step "*) ;;
    *)
      echo "check.sh: unknown step '$step'; valid steps: ${ALL_STEPS[*]}" >&2
      exit 2
      ;;
  esac
done

banner() { printf '\n=== %s ===\n' "$*"; }

want() {
  local step
  for step in "${STEPS[@]}"; do [ "$step" = "$1" ] && return 0; done
  return 1
}

if want release; then
  banner "release: -Werror build + ctest (plain, then PATHSEP_AUDIT=1)"
  cmake --preset release
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
  PATHSEP_AUDIT=1 ctest --test-dir build --output-on-failure -j "$JOBS"
fi

if want asan; then
  banner "asan: AddressSanitizer + UBSan build (DCHECKs live) + full ctest"
  cmake --preset asan-ubsan
  cmake --build build-asan-ubsan -j "$JOBS"
  ctest --test-dir build-asan-ubsan --output-on-failure -j "$JOBS"
fi

if want tsan; then
  banner "tsan: ThreadSanitizer build + ctest -L 'service|parallel|obs|flow'"
  cmake --preset tsan
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L 'service|parallel|obs|flow'
fi

if want obsoff; then
  banner "obsoff: PATHSEP_OBS_DISABLED -Werror build + ctest -L obs"
  cmake --preset obs-off
  cmake --build build-obs-off -j "$JOBS"
  ctest --test-dir build-obs-off --output-on-failure -j "$JOBS" -L obs
fi

if want tsa; then
  banner "tsa: Clang Thread Safety Analysis (-Wthread-safety as errors)"
  if command -v clang++ >/dev/null 2>&1; then
    cmake --preset tsa
    cmake --build build-tsa -j "$JOBS"
  else
    echo "clang++ not found — tsa step skipped (annotations still compile"          "to nothing under GCC; the release step proves that)"
  fi
fi

if want perfbench; then
  banner "perfbench: benchmark build + output-check tests"
  python3 perfbench/test_checks.py
fi

if want lint; then
  banner "lint: pathsep_lint over src/ bench/ examples/"
  cmake --preset release
  cmake --build build --target pathsep_lint -j "$JOBS"
  build/tools/lint/pathsep_lint src bench examples
fi

if want tidy; then
  banner "tidy: clang-tidy over src/"
  cmake --build build --target tidy
fi

banner "check.sh: all requested steps passed"
