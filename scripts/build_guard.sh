#!/bin/sh
# Build-settings guard: optimised native code, warnings still errors.
#
# Usage: build_guard.sh
#
# dune-workspace selects the release profile, which does not pass
# -opaque to ocamlopt, so small cross-module functions can be inlined;
# the root dune file re-applies the dev profile's compiler flags under
# every profile. This fails when `dune printenv` shows lib/relational
# compiled without -strict-sequence or dev's warning spec, or when any
# module of the libraries perfbench/main.exe links is compiled with
# -opaque (read from `dune rules`; nothing is built).
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

warnings='@1..3@5..28@30..39@43@46..47@49..57@61..62-40'
env=$(dune printenv --root . lib/relational)
for flag in -strict-sequence "$warnings"; do
  if ! printf '%s\n' "$env" | grep -qF -- "$flag"; then
    echo "build_guard: lib/relational is compiled without $flag" \
      "(the root dune file keeps the dev profile's warnings as errors)" >&2
    exit 1
  fi
done

rules=$(dune rules --root . -r ./perfbench/main.exe)
if ! printf '%s\n' "$rules" | grep -q 'relational__Term\.cmx'; then
  echo "build_guard: dune rules lists no library module of perfbench" >&2
  exit 1
fi
if printf '%s\n' "$rules" | grep -q -- '-opaque'; then
  echo "build_guard: a library module is compiled with -opaque" \
    "(dune-workspace selects the release profile)" >&2
  exit 1
fi
