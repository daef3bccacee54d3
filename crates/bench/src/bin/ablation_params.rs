//! Extension bench (beyond the paper's figures): sensitivity of the Block
//! Reorganizer to its design parameters, as called out in DESIGN.md —
//!
//! * the dominator threshold multiplier α (Section IV-B discusses tuning
//!   it per network but fixes one value; we sweep it),
//! * the splitting-factor policy (the paper's per-vector *greedy* choice
//!   vs one global Auto factor vs fixed factors),
//! * and a comparison against the AC-spGEMM-like chunked scheme from the
//!   Related Work discussion.

use block_reorganizer::classify::auto_alpha;
use block_reorganizer::config::SplitPolicy;
use block_reorganizer::{BlockReorganizer, ReorganizerConfig};
use br_bench::harness::{parse_args, square_context};
use br_bench::report::{bar_chart, f2, maybe_write_json, Table};
use br_datasets::registry::RealWorldRegistry;
use br_gpu_sim::device::DeviceConfig;
use br_spgemm::pipeline::{run_method, SpgemmMethod};
use serde::Serialize;

#[derive(Serialize)]
struct Results {
    alpha_sweep: Vec<(f64, f64)>,
    auto_alpha_value: f64,
    policy_ms: Vec<(String, f64)>,
    ac_like_speedup_vs_row: f64,
    reorganizer_speedup_vs_row: f64,
}

fn main() {
    let args = parse_args();
    let dev = DeviceConfig::titan_xp();
    let spec = RealWorldRegistry::get("loc-gowalla").expect("registry dataset");
    let a = spec.generate(args.scale);
    let ctx = square_context(&a);
    println!(
        "Parameter ablations on {} surrogate ({} nodes, {} edges)\n",
        spec.name,
        a.nrows(),
        a.nnz()
    );

    // --- α sweep ---
    let mut alpha_sweep = Vec::new();
    let mut t = Table::new(vec!["alpha", "dominators", "total ms", "speedup vs row"]);
    let row_ms = run_method(&ctx, SpgemmMethod::RowProduct, &dev)
        .expect("valid shapes")
        .total_ms;
    for alpha in [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0] {
        let run = BlockReorganizer::new(ReorganizerConfig {
            alpha,
            ..Default::default()
        })
        .multiply_ctx(&ctx, &dev)
        .expect("valid shapes");
        t.row(vec![
            format!("{alpha}"),
            run.stats.dominators.to_string(),
            f2(run.total_ms),
            f2(row_ms / run.total_ms),
        ]);
        alpha_sweep.push((alpha, row_ms / run.total_ms));
    }
    t.print();
    let auto = auto_alpha(&ctx);
    println!("auto-selected alpha for this network: {auto}\n");

    // --- splitting policy ---
    let mut policy_ms = Vec::new();
    for (name, policy) in [
        ("Auto", SplitPolicy::Auto),
        ("Greedy", SplitPolicy::Greedy),
        ("Fixed(8)", SplitPolicy::Fixed(8)),
        ("Fixed(64)", SplitPolicy::Fixed(64)),
        ("Fixed(256)", SplitPolicy::Fixed(256)),
    ] {
        let run = BlockReorganizer::new(ReorganizerConfig {
            split_policy: policy,
            ..Default::default()
        })
        .multiply_ctx(&ctx, &dev)
        .expect("valid shapes");
        policy_ms.push((name.to_string(), run.total_ms));
    }
    let bars: Vec<(String, f64)> = policy_ms
        .iter()
        .map(|(n, ms)| (n.clone(), row_ms / ms))
        .collect();
    print!(
        "{}",
        bar_chart("splitting policy (speedup vs row-product)", &bars, 40)
    );

    // --- AC-spGEMM-like comparison ---
    let ac = run_method(&ctx, SpgemmMethod::AcLike, &dev).expect("valid shapes");
    let reorg = BlockReorganizer::new(ReorganizerConfig::default())
        .multiply_ctx(&ctx, &dev)
        .expect("valid shapes");
    println!(
        "\nAC-spGEMM-like: {}x vs row-product; Block Reorganizer: {}x",
        f2(row_ms / ac.total_ms),
        f2(row_ms / reorg.total_ms)
    );

    maybe_write_json(
        &args.json,
        &Results {
            alpha_sweep,
            auto_alpha_value: auto,
            policy_ms,
            ac_like_speedup_vs_row: row_ms / ac.total_ms,
            reorganizer_speedup_vs_row: row_ms / reorg.total_ms,
        },
    );
}
