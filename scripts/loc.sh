#!/usr/bin/env bash
# Non-test lines of every Rust source file in crates/*/src and src/.
#
#   scripts/loc.sh
#
# A file's non-test lines are those before its first `#[cfg(test)]`
# line (all of them when it has none); a file named tests.rs holds a
# test module and counts 0. Prints `lines path` per file, then a total
# per crate (the root package is `scsq`) and the grand total.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(find crates/*/src src -name '*.rs' | sort | while read -r f; do
    case $f in
        */tests.rs) n=0 ;;
        *) n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f") ;;
    esac
    echo "$n $f"
done)
echo "$files"
echo "$files" | awk '{ split($2, p, "/"); c = p[1] == "crates" ? p[2] : "scsq"; t[c] += $1 }
    END { for (c in t) printf "%d total %s\n", t[c], c }' | sort -k3
echo "$files" | awk '{ s += $1 } END { printf "%d total\n", s }'
