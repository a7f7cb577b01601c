#!/bin/sh
# The "Comparing a change against its parent" recipe of benchmark/README.md
# as one command: build the repo benchmark at a base revision and at the
# working tree, run alternating pairs on fresh seeds, and print, per
# end-to-end metric, each side's median and quartiles and the pairs won.
#
#   scripts/bench_pair.sh <workload> [base-rev] [pairs]
#   make bench-pair WORKLOAD=router_batch BASE=HEAD PAIRS=10
#
# With TRACE_METRICS="name,name" set, one extra `--trace 1` run per side
# follows the pairs (same seed on both) and those per-layer metrics are
# printed side by side — where the saving sits, informational:
#
#   TRACE_METRICS=serving.overlay.apply_ns,client.upsert_p50_us \
#       make bench-pair WORKLOAD=write_mix
#
# Everything it writes goes under .bench_build/ (git-ignored). The base is
# the committed tree of <base-rev> (`git archive`, so no worktree is left
# registered); the change is the working tree as it stands.
set -eu

workload=${1:?usage: scripts/bench_pair.sh <workload> [base-rev] [pairs]}
base=${2:-HEAD}
pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
out=.bench_build
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)

rm -rf "$out/base-src" "$out/runs"
mkdir -p "$out/base-src" "$out/runs" "$out/bin"
git archive "$base" | tar -x -C "$out/base-src"
if ! diff -r -x target -x Cargo.lock benchmark "$out/base-src/benchmark" >/dev/null ||
    ! diff BENCHMARK.json "$out/base-src/BENCHMARK.json" >/dev/null; then
    echo "bench_pair: benchmark/ or BENCHMARK.json differs from $base: the two sides do not measure the same thing" >&2
    exit 2
fi
for side in base change; do
    manifest=benchmark/Cargo.toml
    [ "$side" = base ] && manifest=$out/base-src/benchmark/Cargo.toml
    CARGO_TARGET_DIR="$root/$out/target-$side" \
        cargo build --release --offline --quiet --manifest-path "$manifest"
    cp "$out/target-$side/release/benchmark" "$out/bin/$side"
done

# One run: stdout (metric lines + result line) and the --out document.
run() { # side pair seed [trace]
    "$out/bin/$1" --workload "$workload" --seed "$3" --seconds "$seconds" --trace "${4:-0}" \
        --out "$out/runs/$2.$1.json" >"$out/runs/$2.$1.txt" || {
        echo "bench_pair: $1 failed its checks on seed $3 (see $out/runs/$2.$1.txt)" >&2
        exit 1
    }
}

# Seeds never used while the change was written: the clock.
seed=$(date +%s)
clean=0
attempt=0
while [ "$clean" -lt "$pairs" ] && [ "$attempt" -lt $((pairs * 2)) ]; do
    attempt=$((attempt + 1))
    seed=$((seed + 1))
    if [ $((attempt % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do run "$side" "$attempt" "$seed"; done
    if grep -q '"disturbed": true' "$out/runs/$attempt.base.json" "$out/runs/$attempt.change.json"; then
        echo "pair $attempt (seed $seed, $order): disturbed, discarded" >&2
        rm "$out/runs/$attempt".*
        continue
    fi
    clean=$((clean + 1))
    echo "pair $attempt (seed $seed, $order): kept ($clean/$pairs)" >&2
done

echo "$workload: $clean pairs, $seconds s each, base $(git rev-parse --short "$base") vs working tree, $(nproc) cpus"
# Metric lines are `<workload> <metric> <value> <unit>`; FILENAME carries
# the pair and the side. Bounds and directions come from BENCHMARK.json.
awk -v workload="$workload" '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
# Quantile by linear interpolation over the sorted sample.
function quantile(a, n, q,    h, lo) {
    h = (n - 1) * q + 1; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
# The value after `"key":` on this line, unquoted.
function field(key,    v) {
    v = $0; sub(".*\"" key "\": *\"?", "", v); sub(/[",}].*/, "", v)
    return v
}
function summarise(side, m,    i, n, v) {
    n = 0
    for (i = 1; i <= npairs; i++) v[++n] = value[side, pair[i], m]
    sort(v, n)
    med[side] = quantile(v, n, 0.5); q1[side] = quantile(v, n, 0.25); q3[side] = quantile(v, n, 0.75)
}
FILENAME ~ /BENCHMARK.json$/ {
    if ($0 ~ /"name":/) name = field("name")
    if ($0 ~ /"better":/) higher[name] = ($0 ~ /higher/)
    if ($0 ~ /"bound":/) { bound[name] = field("bound") + 0; order[++nmetrics] = name }
    next
}
$1 == workload && NF == 4 {
    n = split(FILENAME, path, "/"); split(path[n], part, ".")
    if (!((part[1]) in seen)) { seen[part[1]] = 1; pair[++npairs] = part[1] }
    value[part[2], part[1], $2] = $3
}
/^\{"correct"/ {
    n = split(FILENAME, path, "/"); split(path[n], part, ".")
    failed[part[2]] += field("failed"); attempted[part[2]] += field("attempted")
}
END {
    printf "%-20s %34s %34s %8s %6s  %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta", "won", "verdict"
    for (k = 1; k <= nmetrics; k++) {
        m = order[k]; summarise("base", m); summarise("change", m)
        won = 0; lost = 0
        for (i = 1; i <= npairs; i++) {
            d = value["change", pair[i], m] - value["base", pair[i], m]
            if (higher[m]) d = -d
            if (d < 0) won++; else if (d > 0) lost++
        }
        gain = med["base"] - med["change"]; if (higher[m]) gain = -gain
        rel = med["base"] != 0 ? gain / med["base"] : 0
        verdict = "within bound"
        if (won >= 0.9 * npairs && gain > q3["base"] - q1["base"]) verdict = "gain"
        else if (-rel > bound[m]) verdict = "WORSE THAN BOUND"
        else if (q3["base"] - q1["base"] > bound[m] * med["base"]) verdict = "unresolved: spread wider than bound"
        printf "%-20s %12.4g [%8.4g, %8.4g] %12.4g [%8.4g, %8.4g] %+7.1f%% %3d/%-2d  %s\n", m, \
            med["base"], q1["base"], q3["base"], med["change"], q1["change"], q3["change"], \
            (higher[m] ? rel : -rel) * 100, won, npairs, verdict
    }
    printf "failed operations: base %d of %d, change %d of %d\n", failed["base"], attempted["base"], failed["change"], attempted["change"]
}' BENCHMARK.json "$out"/runs/*.txt

# The per-layer metrics asked for, from one traced run per side. They go
# under their own names (trace.*), so the table above never reads them.
if [ -n "${TRACE_METRICS:-}" ]; then
    seed=$((seed + 1))
    for side in base change; do run "$side" trace "$seed" 1; done
    echo "per-layer, one --trace 1 run per side (seed $seed):"
    awk -v workload="$workload" -v wanted="$TRACE_METRICS" '
    BEGIN { n = split(wanted, names, ","); for (i = 1; i <= n; i++) want[names[i]] = 1 }
    $1 == workload && NF == 4 && ($2 in want) {
        side = FILENAME; sub(/.*trace\./, "", side); sub(/\.txt$/, "", side)
        value[side, $2] = $3; unit[$2] = $4
    }
    END {
        printf "%-44s %14s %14s %8s  %s\n", "metric", "base", "change", "ratio", "unit"
        for (i = 1; i <= n; i++) {
            m = names[i]; b = value["base", m]; c = value["change", m]
            printf "%-44s %14.6g %14.6g %8s  %s\n", m, b, c, (b != 0 ? sprintf("%.2fx", c / b) : "-"), unit[m]
        }
    }' "$out/runs/trace.base.txt" "$out/runs/trace.change.txt"
fi
