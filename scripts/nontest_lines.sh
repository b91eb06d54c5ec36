#!/usr/bin/env sh
# Non-test lines of Rust source files: every line before a file's first
# `#[cfg(test)]` (all of it when it has none) — the size measure the
# ROADMAP and CHANGES quote.
#
#   scripts/nontest_lines.sh            dubhe-select's protocol/ and compat.rs,
#                                       and dubhe-net/src (its compat.rs too)
#   scripts/nontest_lines.sh FILE...    the given files
#
# Prints one count per file, the subtotal of the `compat.rs` files among
# them (the adapters kept for the detached benchmark crate, which count
# toward the total), then the total of all of them.
set -eu
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- crates/dubhe-select/src/protocol/*.rs crates/dubhe-select/src/compat.rs \
        crates/dubhe-net/src/*.rs
fi
total=0
compat=0
for file in "$@"; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    printf '%6d  %s\n' "$n" "$file"
    total=$((total + n))
    case "$file" in
        */compat.rs) compat=$((compat + n)) ;;
    esac
done
printf '%6d  compat\n' "$compat"
printf '%6d  total\n' "$total"
