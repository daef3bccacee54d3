//! The traced run: the timed request sequence replayed in this process,
//! without TCP, through the same public calls a server worker makes, with
//! one span around each call.
//!
//! Per request, in the server's order: `MatrixSource::load` (plus
//! `ChainRequest::workload` for chains) → `ProblemContext::from_shared` →
//! `PlanKey::with_options` → `PlanCache::get_or_build` →
//! `ReorgPlan::execute_with_scratch` → frame codec. Chains run those calls
//! once per step, inside `ChainProgram::execute_with`.
//!
//! To split `execute_with_scratch`, each step then re-runs its parts on the
//! same plan and context (permute, launch-trace generation, simulation,
//! numeric merge, un-permute) under an `attribution` span. What the parts
//! do not cover is `core.execute_residual_ms`; it stays near zero while
//! they describe `execute_with_scratch`, and grows once execute is
//! restructured, which is the sign that spans must move inside the
//! program. Attribution and oracle checks are excluded from request time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use block_reorganizer::classify::precalc_launch;
use block_reorganizer::plan::{PlanMode, ReorgPlan};
use block_reorganizer::reorder::{plan_permutation, ReorderStrategy};
use block_reorganizer::ReorganizerConfig;
use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::sim::GpuSimulator;
use br_gpu_sim::trace::KernelLaunch;
use br_net::frame::{read_frame, write_frame, ChainStepSummary, Frame, Lane};
use br_service::cache::{PlanCache, PlanKey};
use br_service::chain::ChainRequest;
use br_sparse::ops::spgemm_gustavson;
use br_sparse::CsrMatrix;
use br_spgemm::accum::{spgemm_adaptive_planned, ScratchPool};
use br_spgemm::context::ProblemContext;
use br_spgemm::estimate::MethodChoice;
use br_spgemm::merge::kway::binned_merge_launches;
use br_spgemm::methods;
use br_spgemm::numeric::default_threads;
use br_spgemm::workspace::Workspace;

use hostbench::oracle;
use hostbench::workload::{Kind, Request, Workload};

/// Plan-cache capacity of a server started with its defaults.
const CACHE_CAPACITY: usize = 32;

/// Spans whose time is not part of serving the request.
const EXCLUDED: [&str; 2] = ["attribution", "check"];

/// Parts of `execute_with_scratch` the attribution re-runs.
const EXECUTE_PARTS: [&str; 5] = [
    "core.permute",
    "core.tracegen",
    "gpu-sim.simulate",
    "spgemm.numeric",
    "core.unpermute",
];

/// Per-request row counts of the plan's merge bins, in `RowBins` order.
const ROW_BINS: [&str; 4] = [
    "spgemm.rows_tiny",
    "spgemm.rows_medium",
    "spgemm.rows_heavy",
    "spgemm.rows_kway",
];

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request id the span belongs to.
    pub request: u64,
    /// Whether the request is a timed one (not warm-up).
    pub timed: bool,
    /// Enclosing span, by index.
    pub parent: Option<usize>,
    /// Layer call the span covers.
    pub name: &'static str,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder: spans live in memory until the replay ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    timed: bool,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            request: self.request,
            timed: self.timed,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now();
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }
}

/// Work counts gathered over the timed requests.
#[derive(Debug, Default, Clone)]
struct Counts {
    launches: u64,
    blocks: u64,
    products: u64,
    rows: [u64; 4],
    simulate_hit_ns: u64,
    simulate_ns: u64,
    mismatches: u64,
}

/// One worker's state, as a server worker holds it.
struct Replayer {
    cache: PlanCache,
    sim: GpuSimulator,
    pool: ScratchPool<f64>,
    device: DeviceConfig,
    config: ReorganizerConfig,
    reorder: ReorderStrategy,
    tracer: Tracer,
    counts: Counts,
}

/// A step's product, with whether its plan was a cache hit and its
/// modelled time in ms (what the reply frame carries).
type StepOut = (CsrMatrix<f64>, (bool, f64));

impl Replayer {
    /// One multiplication, as `execute_job` (and each chain step) runs it.
    fn step(
        &mut self,
        a: &Arc<CsrMatrix<f64>>,
        b: &Arc<CsrMatrix<f64>>,
    ) -> Result<StepOut, String> {
        let step = self.tracer.open("step");
        let t = &mut self.tracer;
        let ctx = t
            .time("spgemm.context", || {
                ProblemContext::from_shared(a.clone(), b.clone())
            })
            .map_err(|e| format!("invalid operands: {e}"))?;
        let (device, config, reorder) = (&self.device, &self.config, self.reorder);
        let key = t.time("spgemm.signature", || {
            PlanKey::with_options(ctx.signature(), &device.name, config, None, reorder)
        });
        let lookup = t.open("service.plan_lookup");
        let (plan, hit) = self.cache.get_or_build(&key, || {
            t.time("core.plan_build", || {
                Arc::new(ReorgPlan::build_with_reorder(&ctx, config, device, reorder))
            })
        });
        t.close(lookup);
        let mode = if hit {
            PlanMode::Cached
        } else {
            PlanMode::Cold
        };
        let (sim, pool) = (&self.sim, &self.pool);
        let run = t
            .time("core.execute", || {
                plan.execute_with_scratch(sim, &ctx, mode, Some(pool))
            })
            .map_err(|e| format!("execution failed: {e}"))?;

        let attribution = t.open("attribution");
        if !hit {
            t.time("core.reorder_plan", || plan_permutation(&ctx.a, reorder));
        }
        let permuted = t.time("core.permute", || {
            plan.permutation
                .as_ref()
                .map(|p| ctx.permute_rows(p.forward()))
        });
        let pctx = permuted.as_ref().unwrap_or(&ctx);
        let (ws, launches) = t.time("core.tracegen", || launch_stream(&plan, pctx, mode));
        let sim_span = t.open("gpu-sim.simulate");
        let profiles = sim.run_sequence(&launches, &ws.layout);
        t.close(sim_span);
        let numeric = t
            .time("spgemm.numeric", || {
                spgemm_adaptive_planned(&pctx.a, &pctx.b, default_threads(), &plan.bins, Some(pool))
            })
            .map_err(|e| format!("numeric merge failed: {e}"))?;
        let unpermuted = t.time("core.unpermute", || match &plan.permutation {
            Some(p) => numeric.permute_rows(p.inverse()),
            None => numeric,
        });
        t.close(attribution);

        let check = t.open("check");
        let oracle = spgemm_gustavson(a, b).map_err(|e| format!("oracle failed: {e}"))?;
        let same = |m: &CsrMatrix<f64>| {
            m.ptr() == oracle.ptr()
                && m.idx() == oracle.idx()
                && m.val()
                    .iter()
                    .zip(oracle.val())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let bitwise = same(&run.result) && same(&unpermuted);
        t.close(check);
        t.close(step);

        if self.tracer.timed {
            let sim_ns = self.tracer.spans[sim_span].ns();
            let c = &mut self.counts;
            c.launches += profiles.len() as u64;
            c.blocks += launches.iter().map(|l| l.blocks.len() as u64).sum::<u64>();
            c.products += pctx.intermediate_total;
            for (sum, n) in c.rows.iter_mut().zip(plan.bins.rows) {
                *sum += n;
            }
            c.simulate_ns += sim_ns;
            if hit {
                c.simulate_hit_ns += sim_ns;
            }
            c.mismatches += u64::from(!bitwise);
        }
        Ok((run.result, (hit, run.total_ms)))
    }

    /// One request, from spec to encoded reply.
    fn request(&mut self, req: &Request) -> Result<(), String> {
        self.tracer.request = req.id;
        let root = self.tracer.open("request");
        let submit = Frame::Submit {
            request_id: req.id,
            lane: Lane::Interactive,
            deadline_ms: 0,
            spec: req.spec.clone(),
        }
        .encode();
        let reply = match req.kind {
            Kind::Single => {
                let (a, b) = self.tracer.time("service.materialize", || {
                    oracle::parse(&req.spec).and_then(|job| oracle::operands(&job))
                })?;
                let (c, (cache_hit, total_ms)) = self.step(&a, &b)?;
                Frame::Result {
                    request_id: req.id,
                    label: String::new(),
                    worker: 0,
                    cache_hit,
                    total_ms,
                    gflops: 0.0,
                    nnz_c: c.nnz() as u64,
                }
            }
            Kind::Chain => {
                let chain = self.tracer.time("service.materialize", || {
                    let job = oracle::parse(&req.spec)?;
                    let workload = job.chain.ok_or("chain spec without chain=")?;
                    let base = job.source.load()?;
                    Ok::<_, String>(ChainRequest::workload(req.id, workload, &base))
                })?;
                let span = self.tracer.open("workloads.chain");
                let run = chain
                    .program
                    .execute_with(&chain.inputs, |_, _, a, b| self.step(a, b))
                    .map_err(|e| format!("chain failed: {e}"))?;
                self.tracer.close(span);
                let steps: Vec<ChainStepSummary> = run
                    .steps
                    .iter()
                    .map(|s| ChainStepSummary {
                        label: s.label.clone(),
                        cache_hit: s.meta.0,
                        fresh_structure: s.fresh_structure,
                        total_ms: s.meta.1,
                        fill_in_permille: s.fill_in_permille,
                        output_nnz: s.output_nnz as u64,
                    })
                    .collect();
                Frame::ChainResult {
                    request_id: req.id,
                    label: chain.label,
                    worker: 0,
                    total_ms: steps.iter().map(|s| s.total_ms).sum(),
                    nnz_c: run.result.nnz() as u64,
                    steps,
                }
            }
        };
        self.tracer.time("net.frame_codec", || {
            read_frame(&mut submit.as_slice()).map_err(|e| format!("decode failed: {e}"))?;
            write_frame(&mut Vec::new(), &reply).map_err(|e| format!("encode failed: {e}"))
        })?;
        self.tracer.close(root);
        Ok(())
    }
}

/// The launch stream `execute_with_scratch` simulates for this plan.
fn launch_stream(
    plan: &ReorgPlan,
    ctx: &ProblemContext<f64>,
    mode: PlanMode,
) -> (Workspace, Vec<KernelLaunch>) {
    let ws = Workspace::for_context(ctx);
    let launches = match plan.method {
        MethodChoice::Reorganized => {
            let mut v = Vec::new();
            if mode == PlanMode::Cold {
                v.push(precalc_launch(ctx, &ws));
            }
            v.push(plan.expansion_launch(ctx, &ws).0);
            v.extend(binned_merge_launches(
                ctx,
                &ws,
                plan.config.block_size,
                true,
                &plan.bins,
                |r| plan.limit_plan.extra_smem(r),
            ));
            v
        }
        MethodChoice::RowProduct => methods::row_product::launches(ctx, &ws),
        MethodChoice::OuterProduct => methods::outer_product::launches(ctx, &ws),
        MethodChoice::Esc => methods::cusp_esc::launches(ctx, &ws),
        MethodChoice::Hash => methods::cusparse_like::launches(ctx, &ws),
    };
    (ws, launches)
}

/// What the traced run measured.
pub struct Traced {
    /// Per-layer metrics: name → (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Self time per span name, ms per timed request, largest first.
    pub self_ms: Vec<(&'static str, f64)>,
    /// Timed multiplications (chain steps count one each) whose traced
    /// product differed from the oracle.
    pub mismatches: u64,
    /// All spans, for the JSONL dump.
    pub spans: Vec<Span>,
}

/// Replays warm-up plus `timed` through one in-process worker and derives
/// the per-layer metrics. `wire_latency_ms` is the mean untraced latency of
/// the same sequence, for `net.residual_ms`.
pub fn replay(
    w: &Workload,
    warmup: &[Request],
    timed: &[Request],
    wire_latency_ms: f64,
) -> Result<Traced, String> {
    let mut r = Replayer {
        cache: PlanCache::new(CACHE_CAPACITY),
        sim: GpuSimulator::new(DeviceConfig::titan_xp()),
        pool: ScratchPool::new(),
        device: DeviceConfig::titan_xp(),
        config: ReorganizerConfig::default(),
        reorder: match w.server_flags {
            ["--reorder", s] => ReorderStrategy::parse(s).map_err(|e| format!("{e}"))?,
            _ => ReorderStrategy::None,
        },
        tracer: Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            timed: false,
        },
        counts: Counts::default(),
    };
    for req in warmup {
        r.request(req)?;
    }
    let before = r.cache.stats();
    r.tracer.timed = true;
    for req in timed {
        r.request(req)?;
    }
    let after = r.cache.stats();
    let n = timed.len().max(1) as f64;

    // Durations and self times per span name over the timed requests.
    let spans = &r.tracer.spans;
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut total: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut own: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut excluded_ns = 0u64;
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.timed) {
        *total.entry(s.name).or_default() += s.ns();
        *own.entry(s.name).or_default() += s.ns() - child_ns[i];
        if EXCLUDED.contains(&s.name) {
            excluded_ns += s.ns();
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let dur = |name: &str| ms(total.get(name).copied().unwrap_or(0));
    let own_ms = |name: &str| ms(own.get(name).copied().unwrap_or(0));
    let request_ms = dur("request") - ms(excluded_ns);
    let parts: f64 = EXECUTE_PARTS.iter().map(|p| dur(p)).sum();
    let c = &r.counts;
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);

    let mut m: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    m.insert("gpu-sim.simulate_ms", (dur("gpu-sim.simulate"), "ms"));
    m.insert(
        "gpu-sim.hit_share",
        (
            c.simulate_hit_ns as f64 / c.simulate_ns.max(1) as f64,
            "ratio",
        ),
    );
    m.insert("gpu-sim.launches", (c.launches as f64 / n, "count"));
    m.insert("gpu-sim.blocks", (c.blocks as f64 / n, "count"));
    m.insert(
        "gpu-sim.blocks_per_ms",
        (
            c.blocks as f64 / (c.simulate_ns.max(1) as f64 / 1e6),
            "1/ms",
        ),
    );
    m.insert("spgemm.numeric_ms", (dur("spgemm.numeric"), "ms"));
    m.insert("spgemm.products", (c.products as f64 / n, "count"));
    for (name, rows) in ROW_BINS.into_iter().zip(c.rows) {
        m.insert(name, (rows as f64 / n, "count"));
    }
    m.insert("spgemm.context_ms", (dur("spgemm.context"), "ms"));
    m.insert("spgemm.signature_ms", (dur("spgemm.signature"), "ms"));
    m.insert("service.materialize_ms", (dur("service.materialize"), "ms"));
    m.insert(
        "service.plan_lookup_ms",
        (own_ms("service.plan_lookup"), "ms"),
    );
    m.insert(
        "service.cache_hit_ratio",
        (
            (after.hits - before.hits) as f64 / lookups.max(1) as f64,
            "ratio",
        ),
    );
    m.insert(
        "service.cache_evictions",
        ((after.evictions - before.evictions) as f64, "count"),
    );
    m.insert("core.plan_build_ms", (dur("core.plan_build"), "ms"));
    m.insert("core.reorder_plan_ms", (dur("core.reorder_plan"), "ms"));
    m.insert("core.tracegen_ms", (dur("core.tracegen"), "ms"));
    m.insert("core.permute_ms", (dur("core.permute"), "ms"));
    m.insert("core.unpermute_ms", (dur("core.unpermute"), "ms"));
    m.insert("core.execute_ms", (dur("core.execute"), "ms"));
    m.insert(
        "core.execute_residual_ms",
        (dur("core.execute") - parts, "ms"),
    );
    m.insert(
        "workloads.chain_overhead_ms",
        (own_ms("workloads.chain"), "ms"),
    );
    m.insert("net.frame_codec_us", (dur("net.frame_codec") * 1e3, "us"));
    m.insert("net.residual_ms", (wire_latency_ms - request_ms, "ms"));

    let mut self_ms: Vec<(&'static str, f64)> = own.keys().map(|&k| (k, own_ms(k))).collect();
    self_ms.sort_by(|x, y| y.1.total_cmp(&x.1));
    Ok(Traced {
        metrics: m,
        self_ms,
        mismatches: c.mismatches,
        spans: r.tracer.spans,
    })
}

/// Spans as JSON lines: one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"request\":{},\"timed\":{},\"span\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.timed, s.name, s.start_ns, s.end_ns
        );
    }
    out
}
