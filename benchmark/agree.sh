#!/usr/bin/env bash
# Repeatability check: two sets of runs of the same code must agree.
#
#   benchmark/agree.sh [--runs N] [--seconds T] [workload ...]
#
# Each set runs every workload N times (default 10), each run with its own
# seed; the second set visits the workloads in reverse order. For every
# metric it prints each set's median, quartiles and spread (quartile
# distance over median, from Python's statistics.quantiles(n=4)), and
# whether the sets agree within the metric's bound in BENCHMARK.json:
# each end-to-end spread within the bound, and the second median not
# worse than the first by more than the bound. host.probe_ms is the
# benchmark's own fixed loop, so it shows host drift apart from code.
# setup_s is an absolute time and drifts with the host as the probe does,
# so only its medians are compared; its spread is printed, not gated.
# Exits non-zero if any end-to-end metric fails a gated test.
set -euo pipefail
cd "$(dirname "$0")/.."
runs=10
seconds=
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        *) workloads+=("$1"); shift ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(dft-large dft-mid wht-large serve-mix)
[ -n "$seconds" ] || seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out="${CARGO_TARGET_DIR:-target}/benchmark/agree"
mkdir -p "$out"

for set in 1 2; do
    : > "$out/set$set.txt"
    order=("${workloads[@]}")
    if [ "$set" = 2 ]; then
        order=()
        for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[$i]}"); done
    fi
    for ((r = 1; r <= runs; r++)); do
        for w in "${order[@]}"; do
            seed=$((set * 1000 + r))
            echo "set $set run $r: $w seed $seed" >&2
            bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                | grep -v '^{' >> "$out/set$set.txt"
        done
    done
done

python3 - "$out/set1.txt" "$out/set2.txt" <<'EOF'
import json, statistics, sys
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

def load(path):
    values = {}
    for line in open(path):
        f = line.split()
        if len(f) < 4:
            continue
        try:
            v = float(f[2])
        except ValueError:
            continue
        values.setdefault((f[0], f[1]), []).append(v)
    return values

sets = [load(p) for p in sys.argv[1:3]]
ok = True
print(f"{'workload':10} {'metric':18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  verdict")
for key in sorted(sets[0]):
    w, m = key
    if m not in bounds and m != "host.probe_ms":
        continue
    meds = []
    for i, s in enumerate(sets):
        vals = s.get(key, [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        meds.append(med)
        verdict = ""
        if m in bounds:
            bound, better = bounds[m]
            if m == "setup_s":
                verdict = "spread not gated"
            else:
                verdict = "spread ok" if spread <= bound else f"SPREAD > {bound}"
                ok &= spread <= bound
        print(f"{w:10} {m:18} {i + 1:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.2%}  {verdict}")
    if m in bounds and len(meds) == 2:
        bound, better = bounds[m]
        worse = (meds[1] - meds[0]) / meds[0] if better == "lower" else (meds[0] - meds[1]) / meds[0]
        agree = worse <= bound
        ok &= agree
        print(f"{w:10} {m:18} {'':>3} second median {worse:+.2%} vs first (bound {bound:.0%}): {'agree' if agree else 'DISAGREE'}")
sys.exit(0 if ok else 1)
EOF
