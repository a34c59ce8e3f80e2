#!/usr/bin/env sh
# Re-runs the root benchmark suite and prints a per-benchmark delta table
# against the checked-in baseline (BENCH_core.json). Usage:
#
#   scripts/bench_compare.sh [bench-regex] [benchtime] [baseline]
#
# bench-regex defaults to '.' (everything; CI uses a smoke subset),
# benchtime defaults to 1x, baseline defaults to BENCH_core.json.
#
# Regressions >20% ns/op are flagged with WARN but never fail the script
# (exit 0): single-iteration timings are noisy, so the table is advisory —
# regenerate the baseline with scripts/bench_baseline.sh when a change is
# intentional. Only standard tools (go, awk) are used.
set -eu

cd "$(dirname "$0")/.."
PATTERN="${1:-.}"
BENCHTIME="${2:-1x}"
BASELINE="${3:-BENCH_core.json}"

if [ ! -f "$BASELINE" ]; then
    echo "bench_compare: baseline $BASELINE not found (run scripts/bench_baseline.sh first)" >&2
    exit 1
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"
echo

awk -v baseline="$BASELINE" '
# Pass 1: the baseline JSON (one benchmark object per line).
FILENAME == baseline && /"name":/ {
    line = $0
    name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
    ns = extract(line, "ns_per_op")
    allocs = extract(line, "allocs_per_op")
    base_ns[name] = ns
    base_allocs[name] = allocs
    next
}
# Pass 2: the fresh `go test -bench` output.
FILENAME != baseline && /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    order[++n] = name
    new_ns[name] = ns
    new_allocs[name] = allocs
}
function extract(line, key,    v) {
    v = line
    if (index(v, "\"" key "\":") == 0) return ""
    sub(".*\"" key "\": ", "", v)
    sub(/[,}].*/, "", v)
    return v
}
function pct(old, new) {
    if (old == "" || new == "" || old + 0 == 0) return "n/a"
    return sprintf("%+.1f%%", 100 * (new - old) / old)
}
END {
    printf "%-42s %14s %14s %9s %12s %12s %9s\n", \
        "benchmark", "old ns/op", "new ns/op", "ns Δ", "old allocs", "new allocs", "allocs Δ"
    warned = 0
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (!(name in base_ns)) {
            printf "%-42s %14s %14s %9s %12s %12s %9s\n", \
                name, "-", new_ns[name], "new", "-", new_allocs[name], "new"
            continue
        }
        printf "%-42s %14s %14s %9s %12s %12s %9s\n", \
            name, base_ns[name], new_ns[name], pct(base_ns[name], new_ns[name]), \
            base_allocs[name], new_allocs[name], pct(base_allocs[name], new_allocs[name])
        if (base_ns[name] + 0 > 0 && (new_ns[name] - base_ns[name]) / base_ns[name] > 0.20) {
            warn[++warned] = name
        }
    }
    for (i = 1; i <= warned; i++)
        printf "WARN: %s regressed >20%% ns/op vs %s\n", warn[i], baseline
    if (warned == 0)
        printf "no >20%% ns/op regressions vs %s\n", baseline
}
' "$BASELINE" "$RAW"
