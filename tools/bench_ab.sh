#!/bin/sh
# A/B of the end-to-end benchmark (BENCHMARK.json) between a parent commit
# and the working tree, by the rule in the choosing-metrics guide §8:
# alternating pairs at fresh seeds, medians and quartiles per side,
# wins/ties/losses, and each metric's regression bound.
#
#   sh tools/bench_ab.sh <parent-ref> [workload...]
#
# The parent is exported with `git archive` into a scratch directory (the
# repository's own .git is not touched), both sides' genesis_e2e are built
# once into separate CARGO_TARGET_DIRs there, and every workload (default:
# all of BENCHMARK.json's) runs ten pairs for BENCHMARK.json's run_seconds
# each, parent first on odd pairs and change first on even ones. Both
# sides run the benchmark source of their own checkout, so a change that
# edits genesis_e2e/ is not comparable and is refused.
#
# Verdict per (workload, metric):
#   gain        the change wins >= 9/10 of the pairs (ties count for
#               neither side) and the medians differ by more than the
#               distance between the parent's quartiles
#   REGRESSION  the change's median is worse than the parent's by more
#               than the metric's bound
#   unresolved  the parent's own quartile spread exceeds the bound, and
#               not every run of the change beats every run of the parent
#   same        none of the above
# Exit status is 1 when any row is a REGRESSION or any operation failed.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: sh tools/bench_ab.sh <parent-ref> [workload...]" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
parent_ref=$1
shift
pairs=10
bench_json="$root/BENCHMARK.json"

if ! git -C "$root" diff --quiet "$parent_ref" -- genesis_e2e BENCHMARK.json; then
    echo "bench_ab: genesis_e2e/ or BENCHMARK.json differ from $parent_ref;" >&2
    echo "a change that claims a gain may not edit the benchmark" >&2
    exit 2
fi

seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$bench_json")
if [ $# -gt 0 ]; then
    workloads=$*
else
    workloads=$(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
        on && /"name"/ { gsub(/[",]/, ""); print $2 }' "$bench_json")
fi
# "name better bound" per end-to-end metric.
metrics=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); better = $2 }
    on && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }' "$bench_json")

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
echo "bench_ab: $parent_ref vs working tree; scratch directory $work"
mkdir -p "$work/parent"
git -C "$root" archive "$parent_ref" | tar -x -C "$work/parent"

build() { # <checkout> <target-dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path genesis_e2e/Cargo.toml)
}
echo "bench_ab: building parent..."
build "$work/parent" "$work/target-parent"
echo "bench_ab: building change..."
build "$root" "$work/target-change"

samples="$work/samples.txt" # workload side pair metric value
: > "$samples"
run() { # <side> <checkout> <workload> <pair> <seed>
    out=$(cd "$2" && "$work/target-$1/release/genesis_e2e" --workload "$3" --seed "$5" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    failed=$(printf '%s\n' "$out" | sed -n 's/.*"failed": *\([0-9]*\).*/\1/p')
    correct=$(printf '%s\n' "$out" | sed -n 's/.*"correct": *\([a-z]*\).*/\1/p')
    if [ "$correct" != "true" ]; then
        failed=$((${failed:-0} + 1))
    fi
    echo "$3 $1 $4 failed_ops ${failed:-1}" >> "$samples"
    echo "$metrics" | while read -r name _ _; do
        value=$(printf '%s\n' "$out" |
            sed -n "s/.*\"$name\": *{\"value\": *\([-0-9.eE+]*\).*/\1/p")
        echo "$3 $1 $4 $name ${value:-nan}" >> "$samples"
    done
}

# Seeds no earlier session is likely to have tuned against.
seed_base=$(date +%s)
for w in $workloads; do
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        seed=$((seed_base + pair))
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$work/parent" "$w" "$pair" "$seed"
            run change "$root" "$w" "$pair" "$seed"
        else
            run change "$root" "$w" "$pair" "$seed"
            run parent "$work/parent" "$w" "$pair" "$seed"
        fi
        echo "bench_ab: $w pair $pair/$pairs done"
        pair=$((pair + 1))
    done
done

echo "$metrics" > "$work/metrics.txt"
awk -v pairs="$pairs" '
function sorted(side, w, m,    i, j, t, n) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((w, side, i, m) in v) s[++n] = v[w, side, i, m]
    for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
    return n
}
function quantile(n, p,    pos, lo) {
    if (n == 0) return 0
    pos = 1 + (n - 1) * p; lo = int(pos)
    return lo >= n ? s[n] : s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
}
FNR == NR { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
{ v[$1, $2, $3, $4] = $5; if (!($1 in seen)) { seen[$1] = 1; wl[++nw] = $1 } }
END {
    status = 0
    for (a = 1; a <= nw; a++) {
        w = wl[a]
        pf = 0; cf = 0
        for (i = 1; i <= pairs; i++) { pf += v[w, "parent", i, "failed_ops"]; cf += v[w, "change", i, "failed_ops"] }
        printf "\n%s: failed operations parent %d, change %d\n", w, pf, cf
        if (cf > 0) status = 1
        printf "  %-22s %38s %38s  %-8s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "w/t/l", "bound", "verdict"
        for (b = 1; b <= nm; b++) {
            m = order[b]; sign = better[m] == "higher" ? 1 : -1
            n = sorted("parent", w, m); pq1 = quantile(n, .25); pmed = quantile(n, .5); pq3 = quantile(n, .75)
            pmin = s[1]; pmax = s[n]
            n = sorted("change", w, m); cq1 = quantile(n, .25); cmed = quantile(n, .5); cq3 = quantile(n, .75)
            cmin = s[1]; cmax = s[n]
            wins = 0; ties = 0; losses = 0
            for (i = 1; i <= pairs; i++) {
                d = (v[w, "change", i, m] - v[w, "parent", i, m]) * sign
                if (d > 0) wins++; else if (d < 0) losses++; else ties++
            }
            base = pmed < 0 ? -pmed : pmed
            worse = (pmed - cmed) * sign
            clear = sign > 0 ? cmin > pmax : cmax < pmin
            verdict = "same"
            if (wins * 10 >= (wins + losses + ties) * 9 && (cmed - pmed) * sign > pq3 - pq1) verdict = "gain"
            else if (base > 0 && worse > bound[m] * base) { verdict = "REGRESSION"; status = 1 }
            else if (base > 0 && pq3 - pq1 > bound[m] * base && !clear) verdict = "unresolved"
            printf "  %-22s %14.4f [%10.4f, %10.4f] %14.4f [%10.4f, %10.4f]  %2d/%d/%-2d %5.0f%%  %s\n", m, pmed, pq1, pq3, cmed, cq1, cq3, wins, ties, losses, bound[m] * 100, verdict
        }
    }
    exit status
}' "$work/metrics.txt" "$samples"
