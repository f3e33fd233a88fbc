#!/bin/sh
# Alternating parent/change pairs of the end-to-end benchmark.
#
# Usage: bench/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SECONDS]
#
# Runs the command BENCHMARK.json declares (read from CHANGE_DIR) with
# `--workload WORKLOAD --seconds SECONDS` in each checkout, PAIRS times
# (default 10 pairs of 20 s runs). The side that runs first alternates
# from pair to pair, so neither always meets the machine in the same
# state. Each side is built and run once, uncounted, before the pairs.
# Prints every pair's end-to-end metrics, then per metric each side's
# median [q1, q3], the change/parent ratio of the medians and the number
# of pairs where the change was better. Exits 1 if any run reports a
# failed pass. Needs python3.
set -eu
if [ $# -lt 3 ] || [ $# -gt 5 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SECONDS]" >&2
  exit 2
fi
exec python3 - "$@" <<'PY'
import json, os, statistics, subprocess, sys

parent, change, workload = sys.argv[1:4]
pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
seconds = sys.argv[5] if len(sys.argv) > 5 else "20"
with open(os.path.join(change, "BENCHMARK.json")) as f:
    spec = json.load(f)
metrics = spec["end_to_end"]
names = [m["name"] for m in metrics]

def run(side, secs):
    cmd = spec["command"] + ["--workload", workload, "--seconds", secs]
    out = subprocess.run(cmd, cwd=side, check=True, capture_output=True,
                         text=True).stdout
    rec = json.loads(out.strip().splitlines()[-1])
    if not rec["correct"]:
        sys.exit("pairs: %s: %d of %d passes failed"
                 % (side, rec["failed"], rec["attempted"]))
    return {n: rec["metrics"][n]["value"] for n in names}

for side in (parent, change):
    run(side, "0")

samples = {"parent": [], "change": []}
print("pair  first   " + "  ".join("%26s" % ("%s parent/change" % n) for n in names))
for i in range(pairs):
    order = [("parent", parent), ("change", change)]
    if i % 2 == 1:
        order.reverse()
    got = {label: run(side, seconds) for label, side in order}
    for label in samples:
        samples[label].append(got[label])
    print("%4d  %-6s  " % (i + 1, order[0][0]) + "  ".join(
        "%12.6g / %-12.6g" % (got["parent"][n], got["change"][n]) for n in names),
        flush=True)

def summary(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

print()
print("%-14s %-34s %-34s %7s %6s" % ("metric", "parent median [q1, q3]",
                                     "change median [q1, q3]", "ratio", "wins"))
for m in metrics:
    n = m["name"]
    p = [s[n] for s in samples["parent"]]
    c = [s[n] for s in samples["change"]]
    lower = m["better"] == "lower"
    wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    (pm, pq1, pq3), (cm, cq1, cq3) = summary(p), summary(c)
    print("%-14s %-34s %-34s %7.3f %3d/%-2d" % (
        "%s (%s)" % (n, m["unit"]),
        "%.6g [%.6g, %.6g]" % (pm, pq1, pq3),
        "%.6g [%.6g, %.6g]" % (cm, cq1, cq3),
        cm / pm if pm else float("nan"), wins, len(p)))
PY
