#!/usr/bin/env bash
# Bench-regression guard: compare a fresh `connreuse-atlas --bench-json`
# file against the committed baseline and fail on a large throughput
# regression, a broken parallel executor, or a blown per-stage budget.
#
#   scripts/bench_guard.sh [BASELINE_JSON] [FRESH_JSON] [STAGE_BUDGETS] [STAGE_PROFILE]
#
# Defaults: BENCH_atlas.json (the committed baseline) vs
# ci-artifacts/BENCH_atlas.json (what the CI atlas smoke step just wrote).
# Both files are schema-2 `BenchFile`s holding one record per run; legacy
# schema-1 single-record files parse the same way. A baseline with a *newer*
# schema than the guard understands makes it skip with a note (exit 0)
# rather than fail opaquely mid-extraction. Records are paired by
# *role*, not by exact thread count (CI runners and the baseline machine
# rarely agree on core counts):
#
#   serial   — the first record with threads == 1
#   parallel — the record with the highest threads > 1 (if any)
#
# Three throughput checks plus the stage check:
#
#   1. Serial throughput: fresh serial sites/s must stay above
#      BENCH_GUARD_MIN_RATIO (default 0.75, i.e. a >25 % regression fails)
#      of the baseline serial figure. Quick runs crawl a small population
#      with the same per-site pipeline, so their throughput is comparable
#      to — usually above — the committed full-run figure.
#   2. The baseline must carry a parallel record at all: the committed
#      multi-thread data point is part of the perf contract.
#   3. Parallel speedup: if the fresh file has a parallel record, its
#      sites/s divided by the fresh serial sites/s must reach
#      BENCH_GUARD_MIN_SPEEDUP. The default floor adapts to the machine the
#      fresh run used (its `available_cores` field): >= 2 cores demand a
#      real speedup (1.15); a single core only guards against pathological
#      scheduler overhead (0.5).
#   4. Per-stage budgets: when both the committed budget file (default
#      BENCH_stages.json) and a fresh stage profile (default
#      ci-artifacts/PROFILE_atlas.json, from `connreuse-atlas --profile-json`,
#      which switches stage collection on in any build) exist, every budgeted
#      stage's share of the measured total must stay under its `max_share`.
#      A violation fails the guard *naming the stage*, so a regression says
#      "dns-walk blew its budget" rather than just "the run got slower".
#      Skipped with a note when the fresh profile is absent.
#
# Override the floors for noisy environments:
#   BENCH_GUARD_MIN_RATIO=0.5 BENCH_GUARD_MIN_SPEEDUP=1.0 scripts/bench_guard.sh
set -euo pipefail

baseline="${1:-BENCH_atlas.json}"
fresh="${2:-ci-artifacts/BENCH_atlas.json}"
stage_budgets="${3:-BENCH_stages.json}"
stage_profile="${4:-ci-artifacts/PROFILE_atlas.json}"
min_ratio="${BENCH_GUARD_MIN_RATIO:-0.75}"
min_speedup="${BENCH_GUARD_MIN_SPEEDUP:-}"

for file in "$baseline" "$fresh"; do
    if [ ! -f "$file" ]; then
        echo "bench guard: missing $file" >&2
        exit 1
    fi
done

# A baseline written by a *newer* tool than this guard understands would
# push garbage through the field extraction below and fail with an opaque
# "could not extract" error. Detect the schema bump up front and skip
# cleanly instead: the guard is the thing that is out of date, not the run.
known_schema=2
baseline_schema=$(sed -e 's/,/\n/g' -e 's/[{}]/\n/g' "$baseline" | awk '
    /"schema"[[:space:]]*:/ { value = $0; gsub(/[^0-9]/, "", value); print value; exit }')
if [ -n "$baseline_schema" ] && [ "$baseline_schema" -gt "$known_schema" ]; then
    echo "bench guard: $baseline carries schema $baseline_schema, newer than schema $known_schema this guard understands"
    echo "bench guard: skipping the comparison — teach scripts/bench_guard.sh the new schema to re-enable it"
    exit 0
fi

# Emit one line per record: "<threads> <available_cores> <sites_per_second>".
# Field order inside a record is fixed by the serializer (threads and
# available_cores precede sites_per_second); available_cores defaults to 0
# for legacy records that lack it.
extract_records() {
    sed -e 's/,/\n/g' -e 's/[{}]/\n/g' "$1" | awk '
        /"threads"[[:space:]]*:/ { value = $0; gsub(/[^0-9]/, "", value); threads = value }
        /"available_cores"[[:space:]]*:/ { value = $0; gsub(/[^0-9]/, "", value); cores = value }
        /"sites_per_second"[[:space:]]*:/ {
            value = $0
            sub(/.*"sites_per_second"[[:space:]]*:[[:space:]]*/, "", value)
            gsub(/[^0-9.eE+-]/, "", value)
            print threads, (cores == "" ? 0 : cores), value
            cores = ""
        }'
}

# Print the sites/s of one role from a record list: role "serial" = first
# threads==1 record, role "parallel" = highest-thread-count record with
# threads > 1. Prints nothing when the role is absent.
pick_role() {
    local records="$1" role="$2"
    echo "$records" | awk -v role="$role" '
        role == "serial" && $1 == 1 && !found { print $3; found = 1 }
        role == "parallel" && $1 > 1 && $1 > best { best = $1; line = $3 }
        END { if (role == "parallel" && best > 0) print line }'
}

base_records=$(extract_records "$baseline")
fresh_records=$(extract_records "$fresh")

base_serial=$(pick_role "$base_records" serial)
base_parallel=$(pick_role "$base_records" parallel)
fresh_serial=$(pick_role "$fresh_records" serial)
fresh_parallel=$(pick_role "$fresh_records" parallel)
fresh_cores=$(echo "$fresh_records" | awk 'NR == 1 { print $2 }')

if [ -z "$base_serial" ] || [ -z "$fresh_serial" ]; then
    echo "bench guard: could not extract a serial (threads=1) record from $baseline / $fresh" >&2
    exit 1
fi

# Check 2: the committed baseline carries the multi-thread record.
if [ -z "$base_parallel" ]; then
    echo "bench guard: $baseline has no parallel (threads>1) record — the committed baseline" >&2
    echo "bench guard: must include the multi-thread data point (run --bench-threads 1,8)" >&2
    exit 1
fi

# Check 1: serial throughput ratio.
awk -v base="$base_serial" -v fresh="$fresh_serial" -v min="$min_ratio" 'BEGIN {
    if (base <= 0) {
        printf "bench guard: baseline serial sites_per_second is %s — nothing to compare\n", base
        exit 1
    }
    ratio = fresh / base
    printf "bench guard: serial fresh %.1f sites/s vs baseline %.1f sites/s (ratio %.2f, floor %.2f)\n",
        fresh, base, ratio, min
    if (ratio < min) {
        printf "bench guard: serial throughput regression beyond the %.0f%% floor — investigate before merging\n",
            (1 - min) * 100
        exit 1
    }
}'

# Check 4: named per-stage budgets (runs here so its verdicts appear even
# when the speedup check below exits early). Both inputs are flat JSON; the
# same sed-split/awk idiom as extract_records pulls "stage" + max_share out
# of the budget file and "stage" + share out of the fresh profile.
extract_stage_pairs() {
    local file="$1" field="$2"
    sed -e 's/,/\n/g' -e 's/[{}]/\n/g' "$file" | awk -v field="$field" '
        /"stage"[[:space:]]*:/ {
            value = $0
            sub(/.*"stage"[[:space:]]*:[[:space:]]*"/, "", value)
            sub(/".*/, "", value)
            stage = value
        }
        $0 ~ "\"" field "\"[[:space:]]*:" {
            value = $0
            sub(/.*"[[:space:]]*:[[:space:]]*/, "", value)
            gsub(/[^0-9.eE+-]/, "", value)
            if (stage != "") { print stage, value; stage = "" }
        }'
}

if [ ! -f "$stage_budgets" ]; then
    echo "bench guard: no stage budget file ($stage_budgets) — stage check skipped"
elif [ ! -f "$stage_profile" ]; then
    echo "bench guard: no fresh stage profile ($stage_profile) — stage check skipped"
    echo "bench guard: (profiles come from 'connreuse-atlas --threads 1 --profile-json FILE')"
else
    budget_pairs=$(extract_stage_pairs "$stage_budgets" max_share)
    share_pairs=$(extract_stage_pairs "$stage_profile" share)
    if [ -z "$share_pairs" ]; then
        echo "bench guard: $stage_profile carries no stage records — stage check skipped"
    else
        printf '%s\n%s\n' "BUDGETS" "$budget_pairs" > /tmp/bench_guard_stages.$$
        printf '%s\n%s\n' "SHARES" "$share_pairs" >> /tmp/bench_guard_stages.$$
        awk '
            $1 == "BUDGETS" { section = "budget"; next }
            $1 == "SHARES" { section = "share"; next }
            NF == 2 && section == "budget" { budget[$1] = $2 }
            NF == 2 && section == "share" { share[$1] = $2 }
            END {
                failed = 0
                for (stage in budget) {
                    if (!(stage in share)) {
                        printf "bench guard: stage %-14s no fresh record (did not run) — skipped\n", stage
                        continue
                    }
                    over = (share[stage] + 0 > budget[stage] + 0)
                    printf "bench guard: stage %-14s share %5.1f%% (budget %5.1f%%)%s\n",
                        stage, share[stage] * 100, budget[stage] * 100, over ? "  << OVER BUDGET" : ""
                    if (over) failed = 1
                }
                if (failed) {
                    print "bench guard: a stage blew its share budget — the named stage is where the time went"
                    exit 1
                }
            }' /tmp/bench_guard_stages.$$ || status=$?
        rm -f /tmp/bench_guard_stages.$$
        if [ "${status:-0}" -ne 0 ]; then
            exit "${status}"
        fi
    fi
fi

# Check 3: parallel speedup of the fresh run (skipped when the fresh file
# was not produced with --bench-threads).
if [ -z "$fresh_parallel" ]; then
    echo "bench guard: fresh file has no parallel record — speedup check skipped"
    exit 0
fi
if [ -z "$min_speedup" ]; then
    if [ "${fresh_cores:-0}" -ge 2 ]; then
        min_speedup=1.15
    else
        min_speedup=0.5
    fi
fi
awk -v serial="$fresh_serial" -v parallel="$fresh_parallel" -v min="$min_speedup" \
    -v cores="${fresh_cores:-0}" 'BEGIN {
    if (serial <= 0) {
        printf "bench guard: fresh serial sites_per_second is %s — nothing to compare\n", serial
        exit 1
    }
    speedup = parallel / serial
    printf "bench guard: parallel speedup %.2fx over serial on %d core(s) (floor %.2f)\n",
        speedup, cores, min
    if (speedup < min) {
        printf "bench guard: parallel executor below the %.2fx speedup floor — investigate before merging\n",
            min
        exit 1
    }
}'
