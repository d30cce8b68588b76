#!/usr/bin/env bash
# Code size per package: non-blank, non-comment, non-test Go lines — the
# count ROADMAP's "net line count per package" tracks.  Prints one line
# per package directory and a total; CI prints it, nothing gates on it.
# The nested benchmark/ module is not part of the count.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
while read -r dir; do
    n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + |
        grep -cvE '^[[:space:]]*($|//)' || true)
    printf '%6d  %s\n' "$n" "${dir#./}"
    total=$((total + n))
done < <(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec dirname {} + | sort -u)
printf '%6d  total\n' "$total"
