#!/usr/bin/env bash
# Planted mutations the test suites must catch.
#
# Each `*.patch` here plants one fault. Its header names the test suite
# that must fail (`# test:`) and one or more lines (`# expect:`) that must
# all appear in that suite's output: the assertion message, and the tests
# that must fail. This script copies the tracked files of the working tree
# once, checks that the unplanted copy passes every suite named, then
# applies each patch in turn, runs its suite, requires the failure, and
# reverts the patch.
#
# Usage: tests/mutants/check.sh [PATCH...]   (default: every patch here)
# MUTANTS_WORK names the scratch directory (default: a fresh mktemp -d);
# the copy and its build stay there between runs, so a second run only
# rebuilds what the patches touch.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=${MUTANTS_WORK:-$(mktemp -d)}
copy="$work/tree"
if [ "$#" -gt 0 ]; then
  patches=("$@")
else
  patches=("$root"/tests/mutants/*.patch)
fi

rm -rf "$copy"
mkdir -p "$copy"
git -C "$root" ls-files -z | tar -C "$root" --null -T - -c | tar -x -C "$copy"

field() { sed -n "s/^# $1: //p" "$2"; }

run_suite() {
  cargo test --offline --manifest-path "$copy/Cargo.toml" --test "$1" >"$2" 2>&1
}

for suite in $(for p in "${patches[@]}"; do field test "$p"; done | sort -u); do
  if ! run_suite "$suite" "$work/clean-$suite.log"; then
    echo "FAIL: --test $suite fails without any plant; see $work/clean-$suite.log"
    exit 1
  fi
done

status=0
for patch in "${patches[@]}"; do
  patch=$(realpath "$patch")
  name=$(basename "$patch" .patch)
  suite=$(field test "$patch")
  log="$work/$name.log"
  (cd "$copy" && git apply "$patch")
  if run_suite "$suite" "$log"; then
    echo "FAIL: $name: --test $suite passed with the plant in"
    status=1
  else
    missing=0
    while IFS= read -r want; do
      if ! grep -qF -- "$want" "$log"; then
        echo "FAIL: $name: --test $suite failed, but not with \`$want\`; see $log"
        missing=1
      fi
    done < <(field expect "$patch")
    if [ "$missing" -eq 0 ]; then
      echo "ok:   $name is caught by --test $suite"
    else
      status=1
    fi
  fi
  (cd "$copy" && git apply -R "$patch")
done
exit "$status"
