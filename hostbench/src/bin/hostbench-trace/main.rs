//! The traced run: drives the server for a fixed number of requests, then
//! replays the same sequence in process with one span per layer call (see
//! `replay.rs`) and reports the per-layer metrics next to the server's own
//! export.

mod replay;

use std::fmt::Write as _;

use hostbench::bench::{main_with, Args, Metric, Phase};

/// Exported counter families the traced run reports, by family name; the
/// metric is `<crate dir>.<family>`.
const EXPORTED: [(&str, &str); 11] = [
    ("net", "br_net_requests_total"),
    ("net", "br_net_results_total"),
    ("net", "br_net_rejects_total"),
    ("net", "br_net_shed_total"),
    ("service", "br_cache_hits_total"),
    ("service", "br_cache_misses_total"),
    ("service", "br_cache_evictions_total"),
    ("gpu-sim", "br_sim_kernel_launches_total"),
    ("spgemm", "br_spgemm_rows_merged_total"),
    ("service", "br_chain_step_cache_hits_total"),
    ("core", "br_reorder_plans_total"),
];

/// The per-layer metrics: the traced replay plus the server's export.
/// Returns them with the number of traced products that differed from the
/// oracle.
fn per_layer(args: &Args, phase: &Phase, out: &mut String) -> Result<(Vec<Metric>, u64), String> {
    let w = &args.workload;
    let lat: Vec<f64> = phase.records.iter().filter_map(|r| r.latency_ms).collect();
    let wire_mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    let requests: Vec<_> = phase.records.iter().map(|r| r.request.clone()).collect();
    let traced = replay::replay(w, &w.warmup(args.seed), &requests, wire_mean)?;
    let path = args
        .workdir
        .join(format!("spans-{}-{}.jsonl", w.name, args.seed));
    std::fs::write(&path, replay::spans_jsonl(&traced.spans))
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    let _ = writeln!(
        out,
        "  traced replay of the same {} requests; {} spans in {}",
        requests.len(),
        traced.spans.len(),
        path.display()
    );
    let _ = writeln!(out, "  self time per span, ms per request:");
    for (name, ms) in &traced.self_ms {
        let _ = writeln!(out, "    {name:<24} {ms:>10.4}");
    }
    let mut metrics: Vec<Metric> = traced
        .metrics
        .iter()
        .map(|(name, (value, unit))| Metric::new(*name, *value, unit))
        .collect();
    let export = phase.export.as_ref().ok();
    for (layer, family) in EXPORTED {
        let value = export
            .and_then(|e| e.get(family))
            .copied()
            .unwrap_or(f64::NAN);
        metrics.push(Metric::new(format!("{layer}.{family}"), value, "count"));
    }
    Ok((metrics, traced.mismatches))
}

fn main() {
    main_with(Some(per_layer))
}
