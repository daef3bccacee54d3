#!/usr/bin/env bash
# CI perf-regression gate. Every suite must write a byte-identical report
# and metrics exposition at any host thread count and on every rerun; the
# quick, estplan, kway, reorder and chain reports must equal their
# checked-in baselines byte for byte; and a held br-net flood must shed by
# arrival order alone. Every gated metric is a pure function of the
# commit, so byte identity is the regression check: any moved number
# fails it, and an intentional change shows up as the refreshed
# baseline's diff.
#
# Usage: scripts/bench_gate.sh
#
# Exits nonzero if any check fails or a baseline is missing. Refresh a
# baseline with, for example:
#   blockreorg-cli bench run --suite quick --no-host \
#       --out results/baselines/BENCH_quick.json
# (the estplan suite's baseline is results/baselines/BENCH_plan.json; the
# others are BENCH_<suite>.json).
#
# Byte-compares use --no-host (the wall-clock host section legitimately
# differs run to run). A last quick run keeps its host section, for
# throughput visibility in the uploaded report. Leaves BENCH_quick.json
# and BENCH_plan.json (the estplan report) behind.

set -euo pipefail
cd "$(dirname "$0")/.."

cli="cargo run --release --quiet --bin blockreorg-cli --"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

fail() {
    echo "error: $*" >&2
    exit 1
}

# same <a> <b>: the two files must be byte-identical.
same() {
    if ! cmp -s "$1" "$2"; then
        echo "error: $1 and $2 differ" >&2
        diff "$1" "$2" | head -40 >&2 || true
        exit 1
    fi
}

# expect <file> <text>...: every text must appear in the file.
expect() {
    local file="$1" text
    shift
    for text in "$@"; do
        grep -qF -- "$text" "$file" || fail "expected '$text' in $file"
    done
}

# families <exposition> <family>...: every family must have a sample line.
families() {
    local file="$1" family
    shift
    for family in "$@"; do
        grep -q "^$family" "$file" || fail "metric family $family missing from $file"
    done
}

# What legitimately differs between a fresh --no-host report and a
# checked-in baseline: the git_sha provenance line, and the explicit
# '"plan": null' / '"chain": null' / '"host": null' a current run writes
# where pre-section baselines omitted those keys entirely.
normalize() {
    grep -v '"git_sha"' "$1" |
        sed -z 's/,\n  "host": null//; s/,\n  "chain": null//; s/,\n  "plan": null//'
}

# suite <name> <baseline> <family>...
# Runs the suite at BR_THREADS=1, 8 and 8 again. The report, the
# Prometheus text and the JSONL exposition must be byte-identical across
# the three runs, every family must appear in the exposition, and the
# report must equal the baseline after normalize. Outputs stay in $work
# as <name>.{t1,t8,rerun}.{json,prom,prom.jsonl}.
suite() {
    local name="$1" baseline="$2" run ext
    shift 2
    echo "== $name: byte-identical across BR_THREADS=1/8 and reruns =="
    for run in t1:1 t8:8 rerun:8; do
        BR_THREADS="${run#*:}" $cli bench run --suite "$name" --no-host \
            --out "$work/$name.${run%%:*}.json" \
            --metrics "$work/$name.${run%%:*}.prom" >/dev/null
    done
    for ext in json prom prom.jsonl; do
        same "$work/$name.t1.$ext" "$work/$name.t8.$ext"
        same "$work/$name.t8.$ext" "$work/$name.rerun.$ext"
    done
    families "$work/$name.t8.prom" "$@"
    [[ -f "$baseline" ]] || fail "baseline $baseline missing"
    if ! cmp -s <(normalize "$baseline") <(normalize "$work/$name.t1.json"); then
        diff <(normalize "$baseline") <(normalize "$work/$name.t1.json") | head -40 >&2 || true
        fail "$name report deviates byte-for-byte from $baseline"
    fi
    echo "ok: $name report is byte-identical to $baseline"
    echo "ok: $name is byte-identical across thread counts and reruns"
}

suite quick results/baselines/BENCH_quick.json \
    br_sim_kernel_launches_total br_sim_kernel_replays_total \
    br_spgemm_rows_merged_total br_cache_hits_total \
    br_jobs_submitted_total br_span_total
# The service batch repeats each dataset's job three times: a miss (Cold),
# a first hit that fills the plan's replay memo, and a second hit that
# replays it — so the quick suite must replay at least one launch.
awk '/^br_sim_kernel_replays_total\{/ { n += $NF } END { exit (n == 0) }' \
    "$work/quick.t8.prom" || fail "the quick suite replayed no kernel launches"

echo "== net flood: admission accounting is a pure function of load =="
# Flood a held br-net server (worker gate closed, shed threshold 6, ample
# quota): 16 alternating-lane submissions admit 6 and shed 10 purely by
# arrival order, then Release drains and Shutdown exits the server, which
# dumps its metrics. The strict exposition must byte-compare across
# BR_THREADS=1/8 and across reruns — shedding never depends on how fast
# workers drain.
net_flood() {
    local threads="$1" port="$work/net.$2.port" tries=0 server_pid
    BR_THREADS="$threads" $cli serve --listen 127.0.0.1:0 \
        --port-file "$port" --hold --workers 2 \
        --shed-threshold 6 --quota 64 --metrics "$work/net.$2.prom" \
        >/dev/null &
    server_pid=$!
    until [[ -s "$port" ]]; do
        tries=$((tries + 1))
        if [[ $tries -gt 100 ]]; then
            kill "$server_pid" 2>/dev/null || true
            fail "serve never wrote $port"
        fi
        sleep 0.1
    done
    $cli client --connect "$(cat "$port")" --client-id flood \
        --spec 'rmat=6,4' --count 16 --lane alternate \
        --release --shutdown --quiet >/dev/null
    wait "$server_pid"
}
net_flood 1 t1
net_flood 8 t8
net_flood 8 rerun
for ext in prom prom.jsonl; do
    same "$work/net.t1.$ext" "$work/net.t8.$ext"
    same "$work/net.t8.$ext" "$work/net.rerun.$ext"
done
# The held-gate flood admits exactly 6 and sheds exactly 10, per lane 3/5;
# the admitted 6 enter and finish through the job service's one pool.
families "$work/net.t8.prom" br_net_requests_total br_net_admitted_total \
    br_net_shed_total br_net_saturation_total br_net_rejects_total \
    br_net_results_total br_net_drain_notices_total
expect "$work/net.t8.prom" \
    'br_net_shed_total{lane="batch"} 5' \
    'br_net_shed_total{lane="interactive"} 5' \
    'br_net_results_total{lane="batch"} 3' \
    'br_net_results_total{lane="interactive"} 3' \
    'br_jobs_submitted_total 6' \
    'br_jobs_completed_total 6'
echo "ok: shed/quota accounting is byte-identical across thread counts and reruns"

# The sampling estimator is seeded from the operands' structure hashes and
# the sample count only — never wall clock, thread order or matrix values.
suite estplan results/baselines/BENCH_plan.json \
    br_plan_estimates_total br_plan_exact_total \
    br_plan_sampled_cols_total br_plan_ops_total
cp "$work/estplan.t1.json" BENCH_plan.json

# The kway suite forces the k-way bin open per case, so its reorganizer
# cases simulate the tournament launch. The bin must actually be used.
suite kway results/baselines/BENCH_kway.json \
    br_spgemm_rows_merged_total br_spgemm_kway_runs_total
expect "$work/kway.t8.prom" 'br_spgemm_rows_merged_total{bin="kway"}'
if grep -qF 'br_spgemm_rows_merged_total{bin="kway"} 0' "$work/kway.t8.prom"; then
    fail "kway suite merged no rows through the kway bin"
fi

# The reorder suite plans every dataset under each strategy; permutations
# are pure functions of A's structure and reach only the simulated launch
# stream. Every strategy cell is pre-registered, and the non-trivial ones
# used.
suite reorder results/baselines/BENCH_reorder.json br_reorder_plans_total
for strategy in none degree rcm cluster; do
    expect "$work/reorder.t8.prom" "br_reorder_plans_total{strategy=\"$strategy\"}"
done
for strategy in degree rcm cluster; do
    if grep -qF "br_reorder_plans_total{strategy=\"$strategy\"} 0" "$work/reorder.t8.prom"; then
        fail "reorder suite built no $strategy plans"
    fi
done

# The chain suite runs each canonical workload against a fresh per-case
# plan cache, so per-step hit/miss counters are pure functions of the
# program.
suite chain results/baselines/BENCH_chain.json \
    br_chain_steps_total br_chain_step_cache_hits_total \
    br_chain_step_cache_misses_total br_chain_structure_churn_total \
    br_chain_fill_in_permille
# The designed contrast, cell by cell: every galerkin case serves its
# value-refreshed pass from the plan cache (exactly 2 hits), while every
# iterated-squaring case churns structure on all 3 steps (0 hits,
# 3 misses). Both workloads run over 3 datasets each.
if ! awk '
    /"workload":/   { w = $2; gsub(/[",]/, "", w) }
    /"cache_hits":/   { v = $2; gsub(/,/, "", v)
                        if (w == "galerkin") { g++; if (v != 2) bad = 1 }
                        if (w == "square:3" && v != 0) bad = 1 }
    /"cache_misses":/ { v = $2; gsub(/,/, "", v)
                        if (w == "square:3") { s++; if (v != 3) bad = 1 } }
    END { exit (bad || g != 3 || s != 3) }
' "$work/chain.t8.json"; then
    grep -E '"(workload|cache_hits|cache_misses)":' "$work/chain.t8.json" >&2 || true
    fail "chain suite hit/miss contrast broken (want galerkin=2 hits, square:3=3 misses per case)"
fi

echo "== quick suite with its host section, for the uploaded report =="
$cli bench run --suite quick --out BENCH_quick.json
