#!/usr/bin/env bash
# Mutation check: each test/mutants/*.patch plants one known bug,
# and the test its header names must fail on it.  A patch starts with
#
#   Mutant: <the bug, in one line>
#   Test: <test executable under _build/default> <alcotest args...>
#
# followed by a unified diff against the root of the tree.  The runner
# copies the source tree (no _build, no .git) to a scratch directory under
# $TMPDIR, checks that every named test passes there unmutated, then for
# each patch: applies it, builds the test, runs it, and reverts the patch.
#
#   bash test/mutants/run.sh                      # every patch
#   bash test/mutants/run.sh test/mutants/x.patch # just these
#
# Exit status: 0 every mutant was killed; 1 a mutant survived (its test
# passed with the bug in); 2 the check cannot judge: a patch no longer
# applies, a mutant does not build, or a named test fails unmutated.
set -u
root=$(cd "$(dirname "$0")/../.." && pwd)
if [ $# -gt 0 ]; then
  patches=()
  for p in "$@"; do patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")"); done
else
  patches=("$root"/test/mutants/*.patch)
fi
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
tar -C "$root" --exclude=./_build --exclude=./.git -cf - . | tar -C "$work" -xf -

field() { sed -n "s/^$1: //p" "$2" | head -n 1; }

# run_test <patch>: build and run the patch's named test in the copy;
# returns the test's exit status, or 125 when it does not build.
run_test() {
  local spec exe
  spec=$(field Test "$1")
  exe=${spec%% *}
  dune build --root "$work" --display quiet "./$exe" >"$work/build.log" 2>&1 || return 125
  # shellcheck disable=SC2086 # the alcotest arguments split on purpose
  (cd "$work" && "./_build/default/$exe" ${spec#"$exe"} >"$work/test.log" 2>&1)
}

status=0
declare -A checked
for p in "${patches[@]}"; do
  if [ -z "$(field Mutant "$p")" ] || [ -z "$(field Test "$p")" ]; then
    echo "mutants: $p: no Mutant:/Test: header" >&2
    exit 2
  fi
  [ -n "${checked[$(field Test "$p")]:-}" ] && continue
  checked[$(field Test "$p")]=1
  run_test "$p"
  if [ $? -ne 0 ]; then
    echo "mutants: $(field Test "$p") fails without any mutant" >&2
    cat "$work/build.log" "$work/test.log" >&2 2>/dev/null
    exit 2
  fi
done
for p in "${patches[@]}"; do
  name=$(basename "$p" .patch)
  if ! patch -d "$work" -p1 --dry-run -s -f <"$p" >/dev/null 2>&1; then
    echo "mutants: $name: patch no longer applies" >&2
    status=2
    continue
  fi
  patch -d "$work" -p1 -s -f <"$p" >/dev/null
  run_test "$p"
  code=$?
  patch -d "$work" -p1 -R -s -f <"$p" >/dev/null
  if [ "$code" -eq 125 ]; then
    echo "mutants: $name: does not build" >&2
    cat "$work/build.log" >&2
    status=2
  elif [ "$code" -eq 0 ]; then
    echo "SURVIVED  $name: $(field Mutant "$p")"
    [ "$status" -eq 0 ] && status=1
  else
    echo "killed    $name: $(field Mutant "$p")"
  fi
done
exit "$status"
