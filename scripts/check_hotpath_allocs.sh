#!/usr/bin/env bash
# check_hotpath_allocs.sh — the dynamic half of the hotpath contract.
#
# syncsimlint's hotpath analyzer statically forbids alloc-inducing
# syntax in //syncsim:hotpath functions; this script asks the compiler's
# escape analysis for the rest: build the annotated packages with
# -gcflags=-m and fail if any "escapes to heap" / "moved to heap"
# diagnostic lands inside an annotated function's line range (the ranges
# come from `syncsimlint -hotpath-ranges`). -a forces recompilation so a
# warm build cache can never swallow the diagnostics and pass vacuously.
#
# MIN_HOTPATH (default 51) guards against the annotations being deleted
# wholesale: fewer annotated functions than the floor is itself a
# failure.
set -euo pipefail
cd "$(dirname "$0")/.."

min="${MIN_HOTPATH:-51}"

ranges="$(go run ./cmd/syncsimlint -hotpath-ranges ./...)"
n="$(printf '%s\n' "$ranges" | sed '/^$/d' | wc -l)"
if [ "$n" -lt "$min" ]; then
  echo "check_hotpath_allocs: found $n //syncsim:hotpath functions, need >= $min" >&2
  exit 1
fi
echo "checking $n hotpath functions:"
printf '%s\n' "$ranges" | awk '{printf "  %-45s %s:%s-%s\n", $4, $1, $2, $3}'

# Build only the packages that contain annotations (plus whatever they
# pull in); -gcflags=-m applies to the named packages, whose files are
# the only ones the ranges can name.
dirs="$(printf '%s\n' "$ranges" | awk '{print $1}' | xargs -n1 dirname | sort -u | sed 's|^|./|')"
# shellcheck disable=SC2086
escapes="$(go build -a -gcflags=-m $dirs 2>&1 | grep -E 'escapes to heap|moved to heap' || true)"

bad=0
while read -r file start end name; do
  [ -n "$file" ] || continue
  hits="$(printf '%s\n' "$escapes" | awk -F: -v f="$file" -v s="$start" -v e="$end" '$1==f && $2+0>=s && $2+0<=e')"
  if [ -n "$hits" ]; then
    echo "FAIL: //syncsim:hotpath $name ($file:$start-$end) allocates:" >&2
    printf '%s\n' "$hits" >&2
    bad=1
  fi
done <<EOF
$ranges
EOF

if [ "$bad" -ne 0 ]; then
  exit 1
fi
echo "ok: no escape-analysis allocations inside hotpath functions"
