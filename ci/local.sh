#!/usr/bin/env bash
# Runs CI's test legs and gates on this machine, so a change is checked in
# every configuration CI builds, not only the default one:
#
#   default      -Werror build, ctest, then the six ci/check_*.sh gates
#   trace-off    -DOZZ_TRACE=OFF -Werror build, ctest
#   prof-off     -DOZZ_PROF=OFF -Werror build, ctest
#   tso-default  ctest of the default build with OZZ_DEFAULT_MODEL=tso
#   asan         (with --asan) ASan/UBSan build, ctest
#
# Each leg builds into its own build-ci-<leg>/ tree. Every step prints a
# PASS or FAIL line; the script runs all of them and exits 1 if any failed.
#
# Usage: ci/local.sh [--asan] [-j N]
set -u

cd "$(dirname "$0")/.."
asan=0
jobs="$(nproc)"
while [ $# -gt 0 ]; do
  case "$1" in
    --asan) asan=1 ;;
    -j) jobs="${2:?-j needs a count}"; shift ;;
    *) echo "usage: ci/local.sh [--asan] [-j N]" >&2; exit 2 ;;
  esac
  shift
done

failed=()
step() {  # step NAME COMMAND...
  local name="$1"
  shift
  echo "== $name"
  if "$@"; then
    echo "PASS $name"
  else
    echo "FAIL $name"
    failed+=("$name")
  fi
}

build() {  # build DIR CMAKE_ARGS...
  local dir="$1"
  shift
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@" > /dev/null &&
    cmake --build "$dir" -j "$jobs"
}

run_tests() {  # run_tests DIR
  ctest --test-dir "$1" -j "$jobs" --output-on-failure
}

leg() {  # leg NAME CMAKE_ARGS...: build build-ci-NAME, then run its ctest
  local name="$1"
  shift
  if step "$name build" build "build-ci-$name" "$@"; then
    step "$name ctest" run_tests "build-ci-$name"
  fi
}

leg default -DCMAKE_CXX_FLAGS=-Werror
if [ -x build-ci-default/tools/ozz_fuzz ]; then
  step "tso-default ctest" env OZZ_DEFAULT_MODEL=tso ctest --test-dir build-ci-default \
    -j "$jobs" --output-on-failure
  b=build-ci-default
  step "check_witnessed" ci/check_witnessed.sh "$b/tools/ozz_analyze"
  step "check_audit" ci/check_audit.sh "$b/tools/ozz_audit"
  step "check_races" ci/check_races.sh "$b/tools/ozz_races"
  step "check_models" ci/check_models.sh "$b/bench/bench_models"
  step "check_trace" ci/check_trace.sh "$b/tools/ozz_fuzz" "$b/tools/ozz_trace"
  step "check_stats" ci/check_stats.sh "$b/tools/ozz_fuzz" "$b/tools/ozz_stat"
fi
leg trace-off -DOZZ_TRACE=OFF -DCMAKE_CXX_FLAGS=-Werror
leg prof-off -DOZZ_PROF=OFF -DCMAKE_CXX_FLAGS=-Werror
if [ "$asan" = 1 ]; then
  leg asan "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all" \
    "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=address,undefined"
fi

if [ "${#failed[@]}" -gt 0 ]; then
  echo "ci/local.sh: ${#failed[@]} step(s) failed: ${failed[*]}"
  exit 1
fi
echo "ci/local.sh: all steps passed"
