//! # reno-perfbench — the repository benchmark
//!
//! Drives three workloads through the simulator crates' public functions
//! and reports end-to-end and per-layer numbers, every layer timed from
//! outside, around calls into its public API. See `perfbench/README.md`
//! for why each workload exists and what each metric means.

pub mod detail;
pub mod host;
pub mod probes;
pub mod reference;
pub mod sampled;
pub mod span;
pub mod stats;
pub mod sweep;

use detail::FuncRef;
use host::{calibrate, peak_rss_mb, thread_cpu_ns, Stopwatch, CALIBRATION_NOMINAL_S};
use reno_sample::SampleConfig;
use reno_workloads::{all_workloads, Scale, Workload};
use span::{self_seconds_by_layer, Span, Tracer};
use stats::{median, percentile, permutation, tail_percentile, Ledger};
use std::path::PathBuf;

/// End-to-end metrics (name, unit), reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("cpi_err_max_pct", "%"),
    ("cpi_err_mean_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (name, unit), reported by every traced run; a layer
/// a workload does not exercise reads 0. The first three are the
/// workload's throughput, kept here, ungated, because on a shared virtual
/// machine host speed swings up to 1.8x over minutes (see README.md).
pub const PER_LAYER: [(&str, &str); 59] = [
    ("sim_minst_per_s", "Minst/s"),
    ("sim_minst_per_cpu_s", "Minst/cpu-s"),
    ("cells_per_s", "1/s"),
    ("workloads.build_s", "s"),
    ("workloads.self_s", "s"),
    ("func.run_minst_per_s", "Minst/s"),
    ("func.oracle_ns_per_inst", "ns/inst"),
    ("func.ckpt_bytes", "bytes"),
    ("func.ckpt_ser_ns_per_byte", "ns/byte"),
    ("func.ckpt_de_ns_per_byte", "ns/byte"),
    ("func.self_s", "s"),
    ("sim.ns_per_inst.baseline", "ns/inst"),
    ("sim.ns_per_inst.cf_me", "ns/inst"),
    ("sim.ns_per_inst.reno", "ns/inst"),
    ("sim.ns_per_cycle", "ns/cycle"),
    ("sim.issued_per_retired", "ratio"),
    ("sim.squashed", "count"),
    ("sim.replays", "count"),
    ("sim.self_s", "s"),
    ("core.reno_ns_per_inst", "ns/inst"),
    ("core.elim_pct", "%"),
    ("core.it_hit_pct", "%"),
    ("mem.warm_ns_per_access", "ns/access"),
    ("mem.l1d_hit_pct", "%"),
    ("mem.l2_hit_pct", "%"),
    ("mem.mshr_merge_pct", "%"),
    ("mem.self_s", "s"),
    ("uarch.warm_ns_per_branch", "ns/branch"),
    ("uarch.cond_mispredict_pct", "%"),
    ("uarch.self_s", "s"),
    ("sample.pass_s", "s"),
    ("sample.windows_s", "s"),
    ("sample.full_share", "ratio"),
    ("sample.detailed_frac", "ratio"),
    ("sample.windows", "count"),
    ("sample.kernels_rung0", "count"),
    ("sample.kernels_rung1", "count"),
    ("sample.kernels_full", "count"),
    ("sample.self_s", "s"),
    ("par.cores_used", "cores"),
    ("dse.cold_s", "s"),
    ("dse.extend_s", "s"),
    ("dse.cached_ms", "ms"),
    ("dse.put_ms", "ms"),
    ("dse.get_ms", "ms"),
    ("dse.store_open_ms", "ms"),
    ("dse.computed", "count"),
    ("dse.cached", "count"),
    ("dse.passes_computed", "count"),
    ("dse.passes_cached", "count"),
    ("dse.store_bytes", "bytes"),
    ("dse.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
    ("op.count", "count"),
    ("op.p50_ms", "ms"),
    ("op.tail_ms", "ms"),
    ("op.tail_pct", "%"),
];

/// Per-layer metrics that are exact counts or ratios of counts: they must
/// repeat bit for bit across runs, seeds and thread settings.
pub const EXACT: [&str; 20] = [
    "func.ckpt_bytes",
    "sim.issued_per_retired",
    "sim.squashed",
    "sim.replays",
    "core.elim_pct",
    "core.it_hit_pct",
    "mem.l1d_hit_pct",
    "mem.l2_hit_pct",
    "mem.mshr_merge_pct",
    "uarch.cond_mispredict_pct",
    "sample.detailed_frac",
    "sample.windows",
    "sample.kernels_rung0",
    "sample.kernels_rung1",
    "sample.kernels_full",
    "dse.computed",
    "dse.cached",
    "dse.passes_computed",
    "dse.passes_cached",
    "dse.store_bytes",
];

/// Fuel of the `sim` probe on the workloads that do not run the detailed
/// simulator themselves.
const SIM_PROBE_FUEL: u64 = 100_000;

/// Set-up repetitions; `setup_s` is the median of their host-speed
/// normalised times.
const SETUP_REPS: usize = 31;

/// Named per-layer values.
#[derive(Clone, Debug, Default)]
pub struct Layer(pub Vec<(String, f64)>);

impl Layer {
    /// Sets (or replaces) one value.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// Adds every value of `other`, replacing equal names.
    pub fn merge(&mut self, other: Layer) {
        for (n, v) in other.0 {
            self.set(&n, v);
        }
    }

    /// One value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Full detailed simulation of 60 jobs on one thread.
    Detail,
    /// `run_sampled_auto` on every kernel at `Scale::Large`.
    Sampled,
    /// A three-phase `run_sweep` session on a fresh store.
    Sweep,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "detail" => Some(Kind::Detail),
            "sampled" => Some(Kind::Sampled),
            "sweep" => Some(Kind::Sweep),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Detail => "detail",
            Kind::Sampled => "sampled",
            Kind::Sweep => "sweep",
        }
    }

    /// The kernel scale the workload runs at.
    pub fn scale(self) -> Scale {
        match self {
            Kind::Sampled => Scale::Large,
            _ => Scale::Default,
        }
    }

    /// `RENO_THREADS` for the workload: 1 for `detail`, every core else.
    pub fn threads(self, nproc: usize) -> usize {
        match self {
            Kind::Detail => 1,
            _ => nproc,
        }
    }
}

/// What one run does.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// Kernel scale (the workload's own, or smaller in self-tests).
    pub scale: Scale,
    /// Sets job, kernel and cell order.
    pub seed: u64,
    /// Measurement time; passes repeat while the next one fits.
    pub seconds: f64,
    /// Traced run: one untraced and one traced pass, then the probes.
    pub trace: bool,
    /// Scratch directory for stores and the span file.
    pub work_dir: PathBuf,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub ledger: Ledger,
    /// (name, value, unit) in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Diagnostic lines (latency tail, passes).
    pub notes: Vec<String>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

/// One pass over a workload. Its operations (jobs, kernels or sweep
/// phases) carry a stable id, so each can be compared across passes.
#[derive(Clone, Debug, Default)]
struct PassOut {
    wall_s: f64,
    cpu_s: f64,
    insts: u64,
    cells: u64,
    /// (op id, wall seconds, on-CPU seconds), in run order.
    ops: Vec<(usize, f64, f64)>,
    /// Ops with an id below this one make up the timed work.
    timed_ids: usize,
    cpi_err_pct: Vec<f64>,
    layer: Layer,
    /// Sampling shapes the pass used per kernel (for the phase probe).
    shapes: Vec<(usize, SampleConfig)>,
}

struct Ctx {
    plan: Plan,
    kernels: Vec<Workload>,
    refs: Vec<FuncRef>,
    cpi_ref: Option<reference::RefTable>,
}

impl Ctx {
    fn pass(&self, i: u64, t: &mut Tracer, ledger: &mut Ledger) -> PassOut {
        let seed = self.plan.seed.wrapping_add(i.wrapping_mul(0x9E37_79B9));
        let kind = self.plan.kind;
        let cpi_ref = self.cpi_ref.as_ref();
        t.span(
            || kind.name().to_string(),
            |t| match kind {
                Kind::Detail => {
                    let order = permutation(self.kernels.len() * detail::CONFIGS.len(), seed);
                    let sw = Stopwatch::start();
                    let agg = detail::run_jobs(
                        &self.kernels,
                        &self.refs,
                        detail::FUEL,
                        &order,
                        cpi_ref,
                        t,
                        ledger,
                    );
                    PassOut {
                        wall_s: sw.wall_s(),
                        cpu_s: sw.cpu_s(),
                        insts: agg.retired(),
                        cells: order.len() as u64,
                        ops: agg.ops.clone(),
                        timed_ids: order.len(),
                        cpi_err_pct: agg.cpi_err_pct.clone(),
                        layer: agg.layer(),
                        shapes: Vec::new(),
                    }
                }
                Kind::Sampled => {
                    let order = permutation(self.kernels.len(), seed);
                    let sw = Stopwatch::start();
                    let agg = sampled::pass(&self.kernels, &self.refs, &order, cpi_ref, t, ledger);
                    PassOut {
                        wall_s: sw.wall_s(),
                        cpu_s: sw.cpu_s(),
                        insts: agg.runs.iter().map(|k| k.total_insts).sum(),
                        cells: agg.runs.len() as u64,
                        ops: agg
                            .runs
                            .iter()
                            .map(|k| (k.kernel, k.wall_s, k.cpu_s))
                            .collect(),
                        timed_ids: order.len(),
                        cpi_err_pct: agg.cpi_err_pct.clone(),
                        layer: agg.layer(),
                        shapes: agg
                            .runs
                            .iter()
                            .filter(|k| sampled::Rung::of_period(k.period) != sampled::Rung::Full)
                            .map(|k| (k.kernel, sampled::rung_config(k.grid_start, k.period)))
                            .collect(),
                    }
                }
                Kind::Sweep => {
                    let order = permutation(self.kernels.len(), seed);
                    let names: Vec<&str> = order.iter().map(|&k| self.kernels[k].name).collect();
                    let dir = self.plan.work_dir.join("sweep-store");
                    let agg = sweep::pass(self.plan.scale, &names, &dir, cpi_ref, t, ledger);
                    // Every kernel's cells cover its whole run.
                    let per_kernel = agg.computed() / self.kernels.len().max(1) as u64;
                    PassOut {
                        wall_s: agg.wall_s(),
                        cpu_s: agg.cpu_s(),
                        insts: per_kernel * self.refs.iter().map(|r| r.retired).sum::<u64>(),
                        cells: agg.computed(),
                        ops: agg
                            .phases
                            .iter()
                            .enumerate()
                            .map(|(i, p)| (i, p.wall_s, p.cpu_s))
                            .collect(),
                        // Cold and extend; the cached re-run is timed apart.
                        timed_ids: 2,
                        cpi_err_pct: agg.cpi_err_pct.clone(),
                        layer: agg.layer(),
                        shapes: (0..self.kernels.len())
                            .map(|k| (k, sweep::cell_shape()))
                            .collect(),
                    }
                }
            },
        )
    }
}

/// On-CPU seconds of each set-up repetition's kernel build and store
/// creation (`sweep` only), and of the calibration run that follows it.
#[derive(Clone, Debug, Default)]
struct SetupReps {
    build_s: Vec<f64>,
    store_s: Vec<f64>,
    calibration_s: Vec<f64>,
}

impl SetupReps {
    /// `setup_s`: the median over repetitions of build time over the
    /// calibration time beside it, in seconds of the reference host.
    /// Store creation stays out of it (see README.md).
    fn normalised_s(&self) -> f64 {
        let ratios: Vec<f64> = self
            .build_s
            .iter()
            .zip(&self.calibration_s)
            .map(|(b, c)| b / c)
            .collect();
        median(&ratios) * CALIBRATION_NOMINAL_S
    }
}

/// Builds the kernels `SETUP_REPS` times (and, for `sweep`, creates the
/// store), each time followed by a calibration run; returns the kernels
/// and the repetitions' times.
fn setup(plan: &Plan, t: &mut Tracer) -> (Vec<Workload>, SetupReps) {
    let mut reps = SetupReps::default();
    let mut kernels = Vec::new();
    for _ in 0..SETUP_REPS {
        // The previous repetition's kernels are freed outside the timing.
        drop(std::mem::take(&mut kernels));
        t.span(
            || "setup".into(),
            |t| {
                let c0 = thread_cpu_ns();
                kernels = t.span(|| "workloads.build".into(), |_| all_workloads(plan.scale));
                let c1 = thread_cpu_ns();
                reps.build_s.push((c1 - c0) as f64 / 1e9);
                if plan.kind == Kind::Sweep {
                    let dir = plan.work_dir.join("setup-store");
                    let _ = std::fs::remove_dir_all(&dir);
                    let c1 = thread_cpu_ns();
                    t.span(
                        || "dse.store_open".into(),
                        |_| reno_dse::Store::open(&dir).expect("create a store"),
                    );
                    reps.store_s.push((thread_cpu_ns() - c1) as f64 / 1e9);
                    let _ = std::fs::remove_dir_all(&dir);
                }
            },
        );
        reps.calibration_s.push(calibrate());
    }
    (kernels, reps)
}

/// Max and mean of the CPI errors, summed in sorted order so the result
/// is bit-identical whatever order the seed ran the operations in.
fn err_stats(errs: &[f64]) -> (f64, f64) {
    if errs.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = errs.to_vec();
    v.sort_by(f64::total_cmp);
    (v[v.len() - 1], v.iter().sum::<f64>() / v.len() as f64)
}

/// Runs one benchmark run as `plan` says.
pub fn run(plan: &Plan) -> Outcome {
    std::fs::create_dir_all(&plan.work_dir).expect("create the work directory");
    let mut t = if plan.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let (kernels, reps) = setup(plan, &mut t);
    let (setup_s, build_s) = (reps.normalised_s(), median(&reps.build_s));
    let fuel = match plan.kind {
        Kind::Detail => detail::FUEL,
        _ => u64::MAX,
    };
    let refs = kernels
        .iter()
        .map(|w| detail::func_ref(&w.program, fuel))
        .collect();
    let ctx = Ctx {
        plan: plan.clone(),
        kernels,
        refs,
        cpi_ref: reference::embedded(plan.scale),
    };
    let mut ledger = Ledger::default();
    let mut notes = Vec::new();

    // Untraced passes: repeat while the next pass is expected to fit.
    let mut passes: Vec<PassOut> = Vec::new();
    let start = Stopwatch::start();
    loop {
        passes.push(ctx.pass(passes.len() as u64, &mut Tracer::off(), &mut ledger));
        let per_pass = start.wall_s() / passes.len() as f64;
        if plan.trace || start.wall_s() + per_pass > plan.seconds {
            break;
        }
    }
    // Each op's median over the passes, summed: a pass slowed by a burst
    // of host load moves the figure less than a plain total would.
    let timed = |pick: fn(&(usize, f64, f64)) -> f64| -> f64 {
        (0..passes[0].timed_ids)
            .map(|id| {
                let xs: Vec<f64> = passes
                    .iter()
                    .flat_map(|p| p.ops.iter().filter(|op| op.0 == id).map(pick))
                    .collect();
                median(&xs)
            })
            .sum()
    };
    let (wall, cpu) = (timed(|op| op.1), timed(|op| op.2));
    let (insts, cells) = (passes[0].insts as f64, passes[0].cells as f64);
    let throughput = [
        ("sim_minst_per_s", insts / 1e6 / wall),
        ("sim_minst_per_cpu_s", insts / 1e6 / cpu),
        ("cells_per_s", cells / wall),
    ];
    let op_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ops.iter().map(|op| op.1 * 1e3))
        .collect();
    let tail = tail_percentile(op_ms.len());
    notes.push(format!(
        "passes={} pass_minst_per_s=[{}] {}",
        passes.len(),
        passes
            .iter()
            .map(|p| format!("{:.3}", p.insts as f64 / 1e6 / p.wall_s))
            .collect::<Vec<_>>()
            .join(", "),
        throughput
            .iter()
            .map(|(n, v)| format!("{n}={v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "setup reps={} build median_ms={:.3} store median_ms={:.3} calibration median_ms={:.3} setup_s={setup_s:.6}",
        SETUP_REPS,
        build_s * 1e3,
        median(&reps.store_s) * 1e3,
        median(&reps.calibration_s) * 1e3
    ));
    notes.push(format!(
        "ops={} op_p50_ms={:.3} {}",
        op_ms.len(),
        median(&op_ms),
        match tail {
            Some(p) => format!("op_tail_p{p}_ms={:.3}", percentile(&op_ms, p)),
            None => "op_tail=none (fewer than 20 ops)".to_string(),
        }
    ));

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if !plan.trace {
        let (err_max, err_mean) = err_stats(&passes[0].cpi_err_pct);
        let values = [err_max, err_mean, setup_s, peak_rss_mb()];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), v, unit));
        }
    } else {
        let untraced = &passes[0];
        let mut layer = Layer::default();
        for (name, v) in throughput {
            layer.set(name, v);
        }
        let traced = ctx.pass(1, &mut t, &mut ledger);
        layer.merge(traced.layer.clone());
        layer.set("workloads.build_s", build_s);
        layer.set("dse.store_open_ms", median(&reps.store_s) * 1e3);
        layer.set("par.cores_used", untraced.cpu_s / untraced.wall_s);
        layer.set(
            "trace.overhead_pct",
            (traced.cpu_s - untraced.cpu_s) / untraced.cpu_s * 100.0,
        );
        layer.set("op.count", op_ms.len() as f64);
        layer.set("op.p50_ms", median(&op_ms));
        if let Some(p) = tail {
            layer.set("op.tail_ms", percentile(&op_ms, p));
            layer.set("op.tail_pct", p);
        }

        // Layers the workload reaches only from inside other calls get
        // their own probes.
        if plan.kind != Kind::Detail {
            let order: Vec<usize> = (0..ctx.kernels.len() * detail::CONFIGS.len()).collect();
            let probe_refs: Vec<FuncRef> = ctx
                .kernels
                .iter()
                .map(|w| detail::func_ref(&w.program, SIM_PROBE_FUEL))
                .collect();
            let agg = t.span(
                || "probe:sim".into(),
                |t| {
                    detail::run_jobs(
                        &ctx.kernels,
                        &probe_refs,
                        SIM_PROBE_FUEL,
                        &order,
                        None,
                        t,
                        &mut ledger,
                    )
                },
            );
            layer.merge(agg.layer());
            let (pass_s, windows_s) =
                sampled::phase_probe(&ctx.kernels, &sampled::machine(), &traced.shapes, &mut t);
            layer.set("sample.pass_s", pass_s);
            layer.set("sample.windows_s", windows_s);
        }
        layer.merge(probes::run(
            &ctx.kernels,
            &plan.work_dir.join("probe-store"),
            &mut t,
        ));

        for (l, secs) in self_seconds_by_layer(t.spans()) {
            layer.set(&format!("{l}.self_s"), secs);
        }
        layer.set("trace.spans", t.spans().len() as f64);
        for (name, unit) in PER_LAYER {
            metrics.push((name.to_string(), layer.get(name).unwrap_or(0.0), unit));
        }
    }
    Outcome {
        ledger,
        metrics,
        notes,
        spans: t.spans().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_time_is_the_median_ratio_to_its_own_calibration() {
        // The third repetition ran on a host twice as slow: its set-up and
        // its calibration both doubled, so its ratio is unchanged.
        let reps = SetupReps {
            build_s: vec![3e-3, 9e-3, 6e-3],
            store_s: vec![1e-3, 1e-3, 1e-3],
            calibration_s: vec![1e-3, 2e-3, 2e-3],
        };
        let want = 3.0 * CALIBRATION_NOMINAL_S;
        assert!((reps.normalised_s() - want).abs() < 1e-15);
    }
}
