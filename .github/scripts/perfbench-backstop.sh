#!/usr/bin/env bash
# Same-runner regression backstop for the repository benchmark. Runs every
# workload named in the head checkout's BENCHMARK.json for 3 s once in the
# base checkout and once in the head checkout, alternating so machine drift
# hits both, and fails when any end-to-end metric of any workload is more
# than 2 times worse in head than in base, when head omits one, or when a
# head run fails its correctness checks.
#
#   bash .github/scripts/perfbench-backstop.sh BASE_DIR HEAD_DIR
set -euo pipefail

base="$(cd "$1" && pwd)"
head="$(cd "$2" && pwd)"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

if [ ! -f "$base/perfbench/run.sh" ]; then
  echo "backstop: base checkout has no perfbench/run.sh; nothing to compare" >&2
  exit 0
fi

workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$head/BENCHMARK.json")"
for w in $workloads; do
  for side in base head; do
    dir="$base"
    [ "$side" = head ] && dir="$head"
    # A failed run still prints its result line; the comparison below
    # reads "correct" from it, so the exit status is not fatal here.
    bash "$dir/perfbench/run.sh" --workload "$w" --seed 1 --seconds 3 --trace 0 \
      2> "$out/$side-$w.log" | tail -n 1 > "$out/$side-$w.json" || true
  done
done

python3 - "$head/BENCHMARK.json" "$out" <<'PY'
import json, math, sys

MAX_RATIO = 2
spec = json.load(open(sys.argv[1]))
out = sys.argv[2]

def load(path):
    try:
        return json.loads(open(path).read())
    except (OSError, ValueError):
        return None

failures = 0
for w in (w["name"] for w in spec["workloads"]):
    base, head = load(f"{out}/base-{w}.json"), load(f"{out}/head-{w}.json")
    if head is None or not head.get("correct"):
        print(f"FAIL {w}: head run failed or printed no result line; its stderr ends:")
        print("".join(open(f"{out}/head-{w}.log").readlines()[-20:]))
        failures += 1
        continue
    if base is None or not base.get("metrics"):
        print(f"skip {w}: base run printed no result line")
        continue
    for m in spec["end_to_end"]:
        name = m["name"]
        if "value" not in head.get("metrics", {}).get(name, {}):
            print(f"FAIL {w} {name}: missing from head's result line")
            failures += 1
            continue
        b = base["metrics"].get(name, {}).get("value", 0.0)
        h = head["metrics"][name]["value"]
        if b <= 0:
            print(f"skip {w} {name}: base value {b}")
            continue
        if m["better"] == "lower":
            ratio = h / b
        else:
            ratio = b / h if h > 0 else math.inf
        verdict = "FAIL" if ratio > MAX_RATIO else "ok"
        print(f"{verdict:4} {w:18} {name:12} base {b:<12.6g} head {h:<12.6g} worse x{ratio:.2f}")
        if ratio > MAX_RATIO:
            failures += 1
if failures:
    print(f"backstop: {failures} metric(s) more than {MAX_RATIO}x worse than base, missing from head, or failed runs")
    sys.exit(1)
print(f"backstop: every end-to-end metric within {MAX_RATIO}x of base")
PY
