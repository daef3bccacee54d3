//! Diagnostic: per-phase breakdown (time, bandwidth pressure, L2 hit rate,
//! sync stalls) of selected methods on one regular and one skewed dataset.
//! Useful when re-calibrating the cost model.

use br_bench::harness::{parse_args, square_context};
use br_datasets::registry::RealWorldRegistry;
use br_gpu_sim::device::DeviceConfig;
use br_spgemm::pipeline::{run_method, SpgemmMethod};

fn main() {
    let args = parse_args();
    let dev = DeviceConfig::titan_xp();
    for name in ["harbor", "youtube"] {
        let spec = RealWorldRegistry::get(name).expect("registry dataset");
        let a = spec.generate(args.scale);
        let ctx = square_context(&a);
        println!(
            "== {name}: n={} nnz={} inter={} out={}",
            a.nrows(),
            a.nnz(),
            ctx.intermediate_total,
            ctx.output_total()
        );
        for m in [
            SpgemmMethod::RowProduct,
            SpgemmMethod::OuterProduct,
            SpgemmMethod::CusparseLike,
            SpgemmMethod::BhsparseLike,
        ] {
            let r = run_method(&ctx, m, &dev).expect("valid shapes");
            print!("{:<14} total {:8.3} ms | ", m.name(), r.total_ms);
            for p in &r.profiles {
                print!(
                    "{}: {:.3}ms (rho {:.2}, l2hit {:.0}%, sync {:.0}%) ",
                    p.name,
                    p.time_ms,
                    p.bandwidth_pressure,
                    p.l2.hit_rate() * 100.0,
                    p.sync_stall_ratio() * 100.0
                );
            }
            println!();
        }
    }
}
