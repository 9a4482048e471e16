#!/usr/bin/env bash
# code_lines.sh — count the module's code lines, per package and in total.
#
# A code line is a line of a non-test .go file outside bench/ (its own
# module) and testdata/ directories that is neither blank nor a
# //-only comment. Prints "<lines> <package dir>" per package, sorted by
# directory, then "<lines> total". It reports; it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

find . \( -name bench -o -name testdata -o -name '.?*' \) -prune -o \
  -type f -name '*.go' ! -name '*_test.go' -print0 |
  xargs -0 awk '
    { line = $0; sub(/^[ \t]+/, "", line) }
    line != "" && line !~ /^\/\// { dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir); print dir }' |
  LC_ALL=C sort | uniq -c |
  awk '{ printf "%6d %s\n", $1, $2; total += $1 } END { printf "%6d total\n", total }'
