#!/usr/bin/env bash
# Non-test lines per crate: for every crates/*/src/**/*.rs, the lines
# before the file's first `#[cfg(test)]` (the whole file when it has
# none), summed per crate, plus the total. Run from the repository root.
find crates/*/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { test = 0 }
  /#\[cfg\(test\)\]/ { test = 1 }
  !test { split(FILENAME, p, "/"); n[p[2]]++; total++ }
  END { for (c in n) printf "%-12s %6d\n", c, n[c] | "sort"; close("sort"); printf "%-12s %6d\n", "total", total }'
