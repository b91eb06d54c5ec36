#!/usr/bin/env bash
# `cargo test "$@"`, failing when it passed no test at all. A name filter
# that matches nothing makes `cargo test` report "0 passed" and exit 0, so
# a filtered step whose test was renamed or moved would stay green while
# running nothing.
#
#   scripts/cargo_test_nonempty.sh -q --release -p dubhe-net --test reactor NAME
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
if ! grep -Eq 'test result: ok\. [1-9][0-9]* passed' "$log"; then
    echo "no test ran: cargo test $*" >&2
    exit 1
fi
