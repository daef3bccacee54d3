#!/usr/bin/env bash
# CI perf-regression gate: run the quick benchmark suite, check the report
# is byte-deterministic (across reruns AND across host thread counts), and
# compare it against the checked-in baseline.
#
# Usage: scripts/bench_gate.sh [cycles-threshold-pct]
#
# Exits nonzero if any tracked metric regresses beyond its threshold
# (default: 5% on simulated cycle counts), if the report is not
# reproducible, or if the baseline is missing. Refresh the baseline with:
#   blockreorg-cli bench run --suite quick --no-host \
#       --out results/baselines/BENCH_quick.json
#
# Byte-compares use --no-host (the wall-clock host section legitimately
# differs run to run); the baseline comparison ignores the host section by
# construction, so the final report keeps it for throughput visibility.

set -euo pipefail
cd "$(dirname "$0")/.."

threshold="${1:-5}"
baseline="results/baselines/BENCH_quick.json"
cli="cargo run --release --quiet --bin blockreorg-cli --"

if [[ ! -f "$baseline" ]]; then
    echo "error: baseline $baseline missing" >&2
    exit 1
fi

echo "== determinism check: 1 thread vs 8 threads must be byte-identical =="
BR_THREADS=1 $cli bench run --suite quick --no-host --out BENCH_quick.t1.json \
    --metrics metrics.t1.prom >/dev/null
BR_THREADS=8 $cli bench run --suite quick --no-host --out BENCH_quick.t8.json \
    --metrics metrics.t8.prom >/dev/null
if ! cmp -s BENCH_quick.t1.json BENCH_quick.t8.json; then
    echo "error: BENCH_quick.json differs between BR_THREADS=1 and BR_THREADS=8" >&2
    diff BENCH_quick.t1.json BENCH_quick.t8.json | head -40 >&2 || true
    exit 1
fi
echo "ok: report is byte-identical at any thread count"

echo "== metrics determinism: exposition must be byte-identical too =="
# The default --metrics dump contains only deterministic families, so the
# Prometheus text and the JSONL must byte-compare between BR_THREADS=1 and
# BR_THREADS=8 (each process ran the identical job multiset).
for pair in "metrics.t1.prom metrics.t8.prom" \
            "metrics.t1.prom.jsonl metrics.t8.prom.jsonl"; do
    # shellcheck disable=SC2086  # intentional word split into the two paths
    set -- $pair
    if ! cmp -s "$1" "$2"; then
        echo "error: metrics exposition differs between BR_THREADS=1 and BR_THREADS=8 ($1 vs $2)" >&2
        diff "$1" "$2" | head -40 >&2 || true
        exit 1
    fi
done
# And a rerun at the same thread count must reproduce the same bytes.
BR_THREADS=8 $cli bench run --suite quick --no-host --out BENCH_quick.rerun.json \
    --metrics metrics.rerun.prom >/dev/null
if ! cmp -s metrics.t8.prom metrics.rerun.prom; then
    echo "error: metrics exposition differs between identical reruns" >&2
    diff metrics.t8.prom metrics.rerun.prom | head -40 >&2 || true
    exit 1
fi
# Sanity: the dump actually carries the pipeline's instruments.
for family in br_sim_kernel_launches_total br_sim_kernel_replays_total \
              br_spgemm_rows_merged_total br_cache_hits_total \
              br_jobs_submitted_total br_span_total; do
    if ! grep -q "^$family" metrics.t8.prom; then
        echo "error: expected metric family $family missing from metrics.t8.prom" >&2
        exit 1
    fi
done
# The service batch repeats each dataset's job three times: a miss (Cold),
# a first hit that fills the plan's replay memo, and a second hit that
# replays it — so the quick suite must replay at least one launch.
if ! awk '/^br_sim_kernel_replays_total\{/ { n += $NF } END { exit (n == 0) }' \
        metrics.t8.prom; then
    echo "error: the quick suite replayed no kernel launches" >&2
    grep '^br_sim_kernel' metrics.t8.prom >&2 || true
    exit 1
fi
rm -f metrics.t1.prom metrics.t8.prom metrics.rerun.prom \
      metrics.t1.prom.jsonl metrics.t8.prom.jsonl metrics.rerun.prom.jsonl \
      BENCH_quick.rerun.json
echo "ok: metrics exposition is byte-identical across thread counts and reruns"

echo "== baseline byte-identity: instrumentation must not move a single byte =="
# Everything the report tracks is a pure function of simulated execution,
# so a fresh --no-host run must reproduce the checked-in baseline exactly.
# Legitimate differences only: the git_sha provenance line, and the
# explicit '"plan": null' / '"chain": null' / '"host": null' a current run
# writes where pre-section baselines omitted those keys entirely.
normalize() {
    grep -v '"git_sha"' "$1" |
        sed -z 's/,\n  "host": null//; s/,\n  "chain": null//; s/,\n  "plan": null//'
}
if ! cmp -s <(normalize BENCH_quick.t1.json) <(normalize "$baseline"); then
    echo "error: BENCH_quick.json deviates byte-for-byte from $baseline" >&2
    diff <(normalize "$baseline") <(normalize BENCH_quick.t1.json) | head -40 >&2 || true
    exit 1
fi
echo "ok: fresh report is byte-identical to the checked-in baseline"

echo "== determinism check: non-default --bins must be byte-identical too =="
BR_THREADS=8 $cli bench run --suite quick --no-host --bins 4,512 \
    --out BENCH_quick.bins.json >/dev/null
if ! cmp -s BENCH_quick.t1.json BENCH_quick.bins.json; then
    echo "error: BENCH_quick.json differs under --bins 4,512" >&2
    diff BENCH_quick.t1.json BENCH_quick.bins.json | head -40 >&2 || true
    exit 1
fi
rm -f BENCH_quick.t1.json BENCH_quick.t8.json BENCH_quick.bins.json
echo "ok: row-bin thresholds never change the report"

echo "== net flood determinism: admission accounting is a pure function of load =="
# Flood a held br-net server (worker gate closed, shed threshold 6, ample
# quota): 16 alternating-lane submissions admit 6 and shed 10 purely by
# arrival order, then Release drains and Shutdown exits the server, which
# dumps its metrics. The strict exposition must byte-compare across
# BR_THREADS=1/8 and across reruns — shedding never depends on how fast
# workers drain.
net_flood() {
    local threads="$1" tag="$2"
    rm -f "net.$tag.port"
    BR_THREADS="$threads" $cli serve --listen 127.0.0.1:0 \
        --port-file "net.$tag.port" --hold --workers 2 \
        --shed-threshold 6 --quota 64 --metrics "net.$tag.prom" \
        >/dev/null &
    local server_pid=$!
    local tries=0
    until [[ -s "net.$tag.port" ]]; do
        tries=$((tries + 1))
        if [[ $tries -gt 100 ]]; then
            echo "error: serve never wrote net.$tag.port" >&2
            kill "$server_pid" 2>/dev/null || true
            exit 1
        fi
        sleep 0.1
    done
    $cli client --connect "$(cat "net.$tag.port")" --client-id flood \
        --spec 'rmat=6,4' --count 16 --lane alternate \
        --release --shutdown --quiet >/dev/null
    wait "$server_pid"
}
net_flood 1 t1
net_flood 8 t8
net_flood 8 rerun
for pair in "net.t1.prom net.t8.prom" \
            "net.t8.prom net.rerun.prom" \
            "net.t1.prom.jsonl net.t8.prom.jsonl" \
            "net.t8.prom.jsonl net.rerun.prom.jsonl"; do
    # shellcheck disable=SC2086  # intentional word split into the two paths
    set -- $pair
    if ! cmp -s "$1" "$2"; then
        echo "error: net metrics exposition differs ($1 vs $2)" >&2
        diff "$1" "$2" | head -40 >&2 || true
        exit 1
    fi
done
for family in br_net_requests_total br_net_admitted_total br_net_shed_total \
              br_net_saturation_total br_net_rejects_total \
              br_net_results_total br_net_drain_notices_total; do
    if ! grep -q "^$family" net.t8.prom; then
        echo "error: expected metric family $family missing from net.t8.prom" >&2
        exit 1
    fi
done
# The held-gate flood admits exactly 6 and sheds exactly 10, per lane 3/5;
# the admitted 6 enter and finish through the job service's one pool.
for line in 'br_net_shed_total{lane="batch"} 5' \
            'br_net_shed_total{lane="interactive"} 5' \
            'br_net_results_total{lane="batch"} 3' \
            'br_net_results_total{lane="interactive"} 3' \
            'br_jobs_submitted_total 6' \
            'br_jobs_completed_total 6'; do
    if ! grep -qF "$line" net.t8.prom; then
        echo "error: expected '$line' in net.t8.prom" >&2
        grep -E '^br_(net|jobs)' net.t8.prom >&2 || true
        exit 1
    fi
done
rm -f net.t1.prom net.t8.prom net.rerun.prom \
      net.t1.prom.jsonl net.t8.prom.jsonl net.rerun.prom.jsonl \
      net.t1.port net.t8.port net.rerun.port
echo "ok: shed/quota accounting is byte-identical across thread counts and reruns"

echo "== estimator determinism: estplan must be byte-identical across threads and reruns =="
# The sampling estimator is seeded from the operands' structure hashes and
# the sample count only, so the estplan report (plan section included) and
# the metrics exposition must byte-compare across BR_THREADS=1/8 and
# across reruns — estimation never reads wall clock, thread order, or
# matrix values.
BR_THREADS=1 $cli bench run --suite estplan --no-host --out BENCH_estplan.t1.json \
    --metrics estplan.t1.prom >/dev/null
BR_THREADS=8 $cli bench run --suite estplan --no-host --out BENCH_estplan.t8.json \
    --metrics estplan.t8.prom >/dev/null
BR_THREADS=8 $cli bench run --suite estplan --no-host --out BENCH_estplan.rerun.json \
    --metrics estplan.rerun.prom >/dev/null
for pair in "BENCH_estplan.t1.json BENCH_estplan.t8.json" \
            "BENCH_estplan.t8.json BENCH_estplan.rerun.json" \
            "estplan.t1.prom estplan.t8.prom" \
            "estplan.t8.prom estplan.rerun.prom" \
            "estplan.t1.prom.jsonl estplan.t8.prom.jsonl" \
            "estplan.t8.prom.jsonl estplan.rerun.prom.jsonl"; do
    # shellcheck disable=SC2086  # intentional word split into the two paths
    set -- $pair
    if ! cmp -s "$1" "$2"; then
        echo "error: estplan output differs ($1 vs $2)" >&2
        diff "$1" "$2" | head -40 >&2 || true
        exit 1
    fi
done
for family in br_plan_estimates_total br_plan_exact_total \
              br_plan_sampled_cols_total br_plan_ops_total; do
    if ! grep -q "^$family" estplan.t8.prom; then
        echo "error: expected metric family $family missing from estplan.t8.prom" >&2
        exit 1
    fi
done
rm -f BENCH_estplan.t1.json BENCH_estplan.t8.json BENCH_estplan.rerun.json \
      estplan.t1.prom estplan.t8.prom estplan.rerun.prom \
      estplan.t1.prom.jsonl estplan.t8.prom.jsonl estplan.rerun.prom.jsonl
echo "ok: estimator planning is byte-identical across thread counts and reruns"

echo "== kway determinism: forced k-way merge must be byte-identical across threads and reruns =="
# The kway suite forces the k-way tournament bin open per case, so heavy
# rows run through the loser-tree merge on the host numeric path and the
# kway-merge kernel in the simulated stream. Pop order is fixed by
# (column, run-generation) keys, so the report and the metrics exposition
# (kway instrument cells included) must byte-compare across BR_THREADS=1/8
# and across reruns.
BR_THREADS=1 $cli bench run --suite kway --no-host --out BENCH_kway.t1.json \
    --metrics kway.t1.prom >/dev/null
BR_THREADS=8 $cli bench run --suite kway --no-host --out BENCH_kway.t8.json \
    --metrics kway.t8.prom >/dev/null
BR_THREADS=8 $cli bench run --suite kway --no-host --out BENCH_kway.rerun.json \
    --metrics kway.rerun.prom >/dev/null
for pair in "BENCH_kway.t1.json BENCH_kway.t8.json" \
            "BENCH_kway.t8.json BENCH_kway.rerun.json" \
            "kway.t1.prom kway.t8.prom" \
            "kway.t8.prom kway.rerun.prom" \
            "kway.t1.prom.jsonl kway.t8.prom.jsonl" \
            "kway.t8.prom.jsonl kway.rerun.prom.jsonl"; do
    # shellcheck disable=SC2086  # intentional word split into the two paths
    set -- $pair
    if ! cmp -s "$1" "$2"; then
        echo "error: kway output differs ($1 vs $2)" >&2
        diff "$1" "$2" | head -40 >&2 || true
        exit 1
    fi
done
# The kway instrument cells must be present — and the bin actually used.
for line in 'br_spgemm_rows_merged_total{bin="kway"}' \
            'br_spgemm_kway_runs_total'; do
    if ! grep -qF "$line" kway.t8.prom; then
        echo "error: expected '$line' in kway.t8.prom" >&2
        grep '^br_spgemm' kway.t8.prom >&2 || true
        exit 1
    fi
done
if grep -qF 'br_spgemm_rows_merged_total{bin="kway"} 0' kway.t8.prom; then
    echo "error: kway suite merged no rows through the kway bin" >&2
    exit 1
fi
rm -f BENCH_kway.t1.json BENCH_kway.t8.json BENCH_kway.rerun.json \
      kway.t1.prom kway.t8.prom kway.rerun.prom \
      kway.t1.prom.jsonl kway.t8.prom.jsonl kway.rerun.prom.jsonl
echo "ok: forced k-way merge is byte-identical across thread counts and reruns"

echo "== reorder determinism: forced row reordering must be byte-identical across threads and reruns =="
# The reorder suite plans every dataset under each strategy; permutations
# are pure functions of A's structure, and the plan un-permutes its output,
# so the report and the metrics exposition (reorder instrument cells
# included) must byte-compare across BR_THREADS=1/8 and across reruns.
BR_THREADS=1 $cli bench run --suite reorder --no-host --out BENCH_reorder.t1.json \
    --metrics reorder.t1.prom >/dev/null
BR_THREADS=8 $cli bench run --suite reorder --no-host --out BENCH_reorder.t8.json \
    --metrics reorder.t8.prom >/dev/null
BR_THREADS=8 $cli bench run --suite reorder --no-host --out BENCH_reorder.rerun.json \
    --metrics reorder.rerun.prom >/dev/null
for pair in "BENCH_reorder.t1.json BENCH_reorder.t8.json" \
            "BENCH_reorder.t8.json BENCH_reorder.rerun.json" \
            "reorder.t1.prom reorder.t8.prom" \
            "reorder.t8.prom reorder.rerun.prom" \
            "reorder.t1.prom.jsonl reorder.t8.prom.jsonl" \
            "reorder.t8.prom.jsonl reorder.rerun.prom.jsonl"; do
    # shellcheck disable=SC2086  # intentional word split into the two paths
    set -- $pair
    if ! cmp -s "$1" "$2"; then
        echo "error: reorder output differs ($1 vs $2)" >&2
        diff "$1" "$2" | head -40 >&2 || true
        exit 1
    fi
done
# Every strategy cell must be pre-registered — and the non-trivial ones used.
for strategy in none degree rcm cluster; do
    if ! grep -qF "br_reorder_plans_total{strategy=\"$strategy\"}" reorder.t8.prom; then
        echo "error: expected br_reorder_plans_total{strategy=\"$strategy\"} in reorder.t8.prom" >&2
        grep '^br_reorder' reorder.t8.prom >&2 || true
        exit 1
    fi
done
for strategy in degree rcm cluster; do
    if grep -qF "br_reorder_plans_total{strategy=\"$strategy\"} 0" reorder.t8.prom; then
        echo "error: reorder suite built no $strategy plans" >&2
        exit 1
    fi
done
rm -f BENCH_reorder.t1.json BENCH_reorder.t8.json BENCH_reorder.rerun.json \
      reorder.t1.prom reorder.t8.prom reorder.rerun.prom \
      reorder.t1.prom.jsonl reorder.t8.prom.jsonl reorder.rerun.prom.jsonl
echo "ok: row reordering is byte-identical across thread counts and reruns"

echo "== chain determinism: chained workloads must be byte-identical across threads and reruns =="
# The chain suite runs each of the four canonical workloads against a
# fresh per-case plan cache, so per-step hit/miss counters are pure
# functions of the chain program — the report (chain section included)
# and the metrics exposition (br_chain_* families included) must
# byte-compare across BR_THREADS=1/8 and across reruns.
BR_THREADS=1 $cli bench run --suite chain --no-host --out BENCH_chain.t1.json \
    --metrics chain.t1.prom >/dev/null
BR_THREADS=8 $cli bench run --suite chain --no-host --out BENCH_chain.t8.json \
    --metrics chain.t8.prom >/dev/null
BR_THREADS=8 $cli bench run --suite chain --no-host --out BENCH_chain.rerun.json \
    --metrics chain.rerun.prom >/dev/null
for pair in "BENCH_chain.t1.json BENCH_chain.t8.json" \
            "BENCH_chain.t8.json BENCH_chain.rerun.json" \
            "chain.t1.prom chain.t8.prom" \
            "chain.t8.prom chain.rerun.prom" \
            "chain.t1.prom.jsonl chain.t8.prom.jsonl" \
            "chain.t8.prom.jsonl chain.rerun.prom.jsonl"; do
    # shellcheck disable=SC2086  # intentional word split into the two paths
    set -- $pair
    if ! cmp -s "$1" "$2"; then
        echo "error: chain output differs ($1 vs $2)" >&2
        diff "$1" "$2" | head -40 >&2 || true
        exit 1
    fi
done
for family in br_chain_steps_total br_chain_step_cache_hits_total \
              br_chain_step_cache_misses_total br_chain_structure_churn_total \
              br_chain_fill_in_permille; do
    if ! grep -q "^$family" chain.t8.prom; then
        echo "error: expected metric family $family missing from chain.t8.prom" >&2
        exit 1
    fi
done
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
' BENCH_chain.t8.json; then
    echo "error: chain suite hit/miss contrast broken (want galerkin=2 hits, square:3=3 misses per case)" >&2
    grep -E '"(workload|cache_hits|cache_misses)":' BENCH_chain.t8.json >&2 || true
    exit 1
fi

echo "== compare chain suite against results/baselines/BENCH_chain.json =="
$cli bench compare results/baselines/BENCH_chain.json BENCH_chain.t1.json \
    --cycles-pct "$threshold"
rm -f BENCH_chain.t1.json BENCH_chain.t8.json BENCH_chain.rerun.json \
      chain.t1.prom chain.t8.prom chain.rerun.prom \
      chain.t1.prom.jsonl chain.t8.prom.jsonl chain.rerun.prom.jsonl
echo "ok: chained workloads are byte-identical across thread counts and reruns"

echo "== bench gate: quick suite, cycle threshold ${threshold}% =="
$cli bench run --suite quick --out BENCH_quick.json

echo "== compare against $baseline =="
$cli bench compare "$baseline" BENCH_quick.json --cycles-pct "$threshold"
