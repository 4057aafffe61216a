#!/usr/bin/env bash
# The pairs protocol of benchmark/README.md §"How a later change makes a
# claim", as one command:
#
#   tools/pairs.sh <parent-tree> <change-tree> <workload> [seed=2016] [pairs=10]
#
# Runs each tree's own `benchmark/run.sh --workload W --seed S --seconds 10
# --trace 0`, built into that tree's own benchmark/target, `pairs` times,
# alternating which side goes first. Prints, per end-to-end metric, every
# run made, both medians and quartile pairs (exclusive method, as
# benchmark/src/stats.rs), wins/ties/losses of the change, and `claim-ok`
# iff the change wins at least 9/10 of the decided pairs and its median is
# better than the parent's by more than the parent's interquartile range.
# The last line is `exact: ok` iff `sim_elapsed_ms` is equal within every
# pair and no run reported a failed operation. Edits nothing in either
# tree except what `run.sh` itself leaves behind.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,/^set/{/^set/d;s/^# \{0,1\}//;p}' "$0" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
seed="${4:-2016}"
pairs="${5:-10}"

# run.sh honours CARGO_TARGET_DIR; one shared directory would rebuild on
# every switch and time whichever tree was compiled last.
unset CARGO_TARGET_DIR
runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT

run() { # side tree → appends the run's result line to $runs/side
  bash "$2/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 |
    tail -n 1 >>"$runs/$1"
}
for i in $(seq "$pairs"); do
  if ((i % 2)); then
    run parent "$parent" && run change "$change"
  else
    run change "$change" && run parent "$parent"
  fi
  echo "pair $i/$pairs" >&2
done

echo "$workload, seed $seed, $pairs alternating pairs (parent/change per pair)"
awk -v pairs="$pairs" '
  function value(line, name,   at, rest) {
    at = index(line, "\"" name "\":{\"value\":")
    if (!at) return "nan"
    rest = substr(line, at + length(name) + 12)
    sub(/[,}].*/, "", rest)
    return rest + 0
  }
  function sort(v, n,   i, j, t) {
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
  }
  # Quartile i of the sorted v[1..n], exclusive method.
  function quartile(v, n, i,   j, delta) {
    j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    delta = i * (n + 1) - j * 4
    return (v[j] * (4 - delta) + v[j + 1] * delta) / 4
  }
  # BENCHMARK.json: the end-to-end metrics and which direction is better.
  FILENAME ~ /BENCHMARK.json$/ {
    if (/"end_to_end"/) inside = 1
    else if (inside && /\]/) inside = 0
    else if (inside && /"name"/) { gsub(/.*: *"|".*/, ""); names[++m] = $0 }
    else if (inside && /"better"/) { gsub(/.*: *"|".*/, ""); better[names[m]] = $0 }
    next
  }
  { side = (FILENAME ~ /parent$/) ? "p" : "c"; line[side, ++n[side]] = $0
    if ($0 !~ /"correct":true/ || $0 !~ /"failed":0[,}]/) failed++ }
  END {
    if (n["p"] != pairs || n["c"] != pairs) { print "exact: MISSING RUNS"; exit 1 }
    for (k = 1; k <= m; k++) {
      name = names[k]; wins = ties = losses = 0; all = ""
      for (i = 1; i <= pairs; i++) {
        p[i] = value(line["p", i], name); c[i] = value(line["c", i], name)
        all = all sprintf(" %.6g/%.6g", p[i], c[i])
        if (c[i] == p[i]) ties++
        else if ((c[i] > p[i]) == (better[name] == "higher")) wins++
        else losses++
      }
      if (name == "sim_elapsed_ms" && ties != pairs) inexact++
      sort(p, pairs); sort(c, pairs)
      pm = quartile(p, pairs, 2); cm = quartile(c, pairs, 2)
      shift = (better[name] == "higher") ? cm - pm : pm - cm
      iqr = quartile(p, pairs, 3) - quartile(p, pairs, 1)
      ok = wins + losses > 0 && wins * 10 >= 9 * (wins + losses) && shift > iqr
      printf "%s (%s is better)\n  runs:%s\n", name, better[name], all
      printf "  parent %.6g [%.6g .. %.6g]  change %.6g [%.6g .. %.6g]  change/parent %.3f  W/T/L %d/%d/%d  %s\n",
        pm, quartile(p, pairs, 1), quartile(p, pairs, 3), cm, quartile(c, pairs, 1), quartile(c, pairs, 3),
        pm ? cm / pm : 0, wins, ties, losses, ok ? "claim-ok" : "no-claim"
    }
    print (failed || inexact) ? "exact: FAILED (" failed + 0 " runs with failures, sim_elapsed_ms " (inexact ? "differs" : "equal") ")" : "exact: ok"
  }' "$change/BENCHMARK.json" "$runs/parent" "$runs/change"
echo "reminder: git checkout benchmark/Cargo.lock in both trees"
