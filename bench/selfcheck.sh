#!/usr/bin/env bash
# A/A self-check: the benchmark against itself.
#
#   bench/selfcheck.sh [runs-per-set]        (default 3)
#
# Builds the benchmark once, then makes two sets of runs of the same
# binary on the same checkout and seed: per set, `runs-per-set`
# untraced runs and one traced run of each workload. It takes each
# metric's median per set and fails unless
#
#   * every end-to-end metric of every workload agrees between the sets
#     within the bound BENCHMARK.json gives it,
#   * est_cost_ratio and every count the traced run takes from the
#     program (DAG and physical-DAG sizes, Greedy's work counters, the
#     candidate pool, admissions / evictions / rejections) are
#     bit-identical between the sets,
#   * session.unaccounted_share <= 0.10 on batch-cold and
#     optimize-scaleup, and trace.overhead_share <= 0.10 everywhere.
#
# A benchmark that cannot agree with itself cannot judge a change.
set -euo pipefail

runs=${1:-3}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
target=${CARGO_TARGET_DIR:-$root/bench/target}
out=$target/selfcheck
seed=${SELFCHECK_SEED:-20000516}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=(batch-cold optimize-scaleup serve-warm serve-churn)

CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path bench/Cargo.toml --bin benchmark
exe=$target/release/benchmark

rm -rf "$out"
for set in A B; do
    mkdir -p "$out/$set"
    for w in "${workloads[@]}"; do
        for i in $(seq "$runs"); do
            echo "selfcheck: set $set, $w, run $i of $runs" >&2
            "$exe" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                --out "$out/$set" | tail -n 1 >"$out/$set/$w.$i.json"
        done
        echo "selfcheck: set $set, $w, traced" >&2
        "$exe" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
            --out "$out/$set" | tail -n 1 >"$out/$set/$w.trace.json"
    done
done

python3 - "$out" "$runs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
exact = {
    "dag.groups", "dag.ops", "dag.sharable", "physical.nodes", "physical.ops",
    "core.greedy.benefit_recomputations", "core.greedy.cost_propagations",
    "core.candidates", "exec.mv_store.admitted", "exec.mv_store.evicted",
    "exec.mv_store.rejected",
}
problems = []

def load(path):
    result = json.load(open(path))
    if not result["correct"]:
        problems.append(f"{path}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}

for w in workloads:
    medians = {}
    for s in "AB":
        sets = [load(f"{out}/{s}/{w}.{i}.json") for i in range(1, runs + 1)]
        medians[s] = {name: statistics.median(r[name] for r in sets) for name in sets[0]}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = medians["A"][name], medians["B"][name]
        if name == "est_cost_ratio":
            ok = a == b
        else:
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = abs(worse) <= bound
        print(f"{w:17} {name:18} A {a:14.6f}  B {b:14.6f}  {'ok' if ok else 'DIFFERS'}")
        if not ok:
            problems.append(f"{w}: {name} is {a} in set A and {b} in set B (bound {bound})")

    trace = {s: load(f"{out}/{s}/{w}.trace.json") for s in "AB"}
    for name in sorted(exact):
        if trace["A"][name] != trace["B"][name]:
            problems.append(f"{w}: count {name} is {trace['A'][name]} then {trace['B'][name]}")
    for s in "AB":
        share = trace[s]["trace.overhead_share"]
        if share > 0.10:
            problems.append(f"{w}: trace.overhead_share {share:.3f} > 0.10 in set {s}")
        hidden = trace[s]["session.unaccounted_share"]
        if w in ("batch-cold", "optimize-scaleup") and hidden > 0.10:
            problems.append(f"{w}: session.unaccounted_share {hidden:.3f} > 0.10 in set {s}")

for p in problems:
    print("selfcheck: " + p, file=sys.stderr)
sys.exit(1 if problems else 0)
EOF
echo "selfcheck: the two sets agree"
