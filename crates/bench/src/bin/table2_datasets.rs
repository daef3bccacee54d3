//! Table II — the 28 real-world datasets: published numbers beside the
//! surrogate actually generated at the chosen scale, with measured
//! `nnz(C = A²)` and the degree-skew statistics that justify each
//! surrogate's distribution class.

use br_bench::harness::{parse_args, square_context};
use br_bench::report::{count, maybe_write_json, Table};
use br_datasets::registry::RealWorldRegistry;
use br_sparse::stats::DegreeStats;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: String,
    class: String,
    paper_dim: usize,
    paper_nnz_a: usize,
    paper_nnz_c: usize,
    surrogate_dim: usize,
    surrogate_nnz_a: usize,
    surrogate_nnz_c: usize,
    gini: f64,
}

fn main() {
    let args = parse_args();
    println!(
        "Table II: real-world datasets (surrogates at scale {:?})\n",
        args.scale
    );
    let mut t = Table::new(vec![
        "name",
        "class",
        "paper dim",
        "paper nnz(A)",
        "paper nnz(C)",
        "surr dim",
        "surr nnz(A)",
        "surr nnz(C)",
        "gini",
    ]);
    let mut rows = Vec::new();
    for spec in RealWorldRegistry::all() {
        let a = spec.generate(args.scale);
        let ctx = square_context(&a);
        let stats = DegreeStats::of_rows(&a);
        let row = Row {
            name: spec.name.to_string(),
            class: format!("{:?}", spec.class),
            paper_dim: spec.paper_dim,
            paper_nnz_a: spec.paper_nnz_a,
            paper_nnz_c: spec.paper_nnz_c,
            surrogate_dim: a.nrows(),
            surrogate_nnz_a: a.nnz(),
            surrogate_nnz_c: ctx.output_total(),
            gini: stats.gini,
        };
        t.row(vec![
            row.name.clone(),
            row.class.clone(),
            count(row.paper_dim as u64),
            count(row.paper_nnz_a as u64),
            count(row.paper_nnz_c as u64),
            count(row.surrogate_dim as u64),
            count(row.surrogate_nnz_a as u64),
            count(row.surrogate_nnz_c as u64),
            format!("{:.2}", row.gini),
        ]);
        rows.push(row);
    }
    t.print();
    maybe_write_json(&args.json, &rows);
}
