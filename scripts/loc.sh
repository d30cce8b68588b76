#!/usr/bin/env bash
# Code size per package: non-blank, non-comment, non-test Go lines — the
# count ROADMAP's "net line count per package" tracks.  Prints one line
# per package directory and a total.  The nested benchmark/ module is not
# part of the count.
#
# -check compares the counts with the committed scripts/loc.baseline and
# fails when the total or any package is larger than its baseline line (a
# package the baseline lacks counts from zero), so growth is a reviewed
# line in the diff: the PR that needs it regenerates the baseline with
# `./scripts/loc.sh > scripts/loc.baseline` in the same commit.  Shrinking
# never fails; refresh the baseline then too, to keep the ratchet tight.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    local total=0 dir n
    while read -r dir; do
        n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + |
            grep -cvE '^[[:space:]]*($|//)' || true)
        printf '%6d  %s\n' "$n" "${dir#./}"
        total=$((total + n))
    done < <(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec dirname {} + | sort -u)
    printf '%6d  total\n' "$total"
}

if [ "${1-}" != -check ]; then
    count
    exit 0
fi

baseline=scripts/loc.baseline
[ -f "$baseline" ] || { echo "loc: $baseline is missing" >&2; exit 1; }
grew=0
while read -r n name; do
    was=$(awk -v name="$name" '$2 == name { print $1 }' "$baseline")
    printf '%6d  %-28s (baseline %s)\n' "$n" "$name" "${was:-none}"
    if [ "$n" -gt "${was:-0}" ]; then
        echo "loc: $name grew ${was:-0} -> $n; shrink it or commit a new $baseline" >&2
        grew=1
    fi
done < <(count)
exit "$grew"
