//! The `sampled` workload: `run_sampled_auto` on every kernel at
//! `Scale::Large`, RENO on the 4-wide machine, run to `halt`.

use crate::detail::FuncRef;
use crate::host::Stopwatch;
use crate::reference::RefTable;
use crate::span::Tracer;
use crate::stats::{expect_eq, Ledger};
use crate::Layer;
use reno_core::RenoConfig;
use reno_sample::{run_sampled_auto, run_sampled_with_pass, CheckpointPass, SampleConfig};
use reno_sim::MachineConfig;
use reno_workloads::Workload;

/// The sampled workload's machine.
pub fn machine() -> MachineConfig {
    MachineConfig::four_wide(RenoConfig::reno())
}

/// Detailed warmup and interval of every sampled rung: the `WARMUP` and
/// `INTERVAL` constants of `run_sampled_auto` (crates/sample/src/engine.rs),
/// which the crate does not export.
const WARMUP: u64 = 2048;
const INTERVAL: u64 = 768;

/// Period of the dense rung 1: `p1` of `run_sampled_auto`
/// (crates/sample/src/engine.rs). The sparse rung 0 never goes below
/// 32768, and the full-detail fallback reports period 1.
const DENSE_PERIOD: u64 = 12288;

/// The ladder rung a result came from, read off its sampling period.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Sparse sampling.
    Sparse,
    /// Dense sampling.
    Dense,
    /// Full detailed simulation.
    Full,
}

impl Rung {
    /// Classifies a `SampledResult::period`.
    pub fn of_period(period: u64) -> Rung {
        match period {
            1 => Rung::Full,
            DENSE_PERIOD => Rung::Dense,
            _ => Rung::Sparse,
        }
    }
}

/// One kernel's sampled run.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Index into the kernel list.
    pub kernel: usize,
    /// Sampling period the ladder settled on.
    pub period: u64,
    /// Head length of that rung (`SampledResult::grid_start`).
    pub grid_start: u64,
    /// Instructions the estimate covers.
    pub total_insts: u64,
    /// Instructions simulated in detail.
    pub detailed_insts: u64,
    /// Measured windows.
    pub windows: u64,
    /// Wall seconds of the call.
    pub wall_s: f64,
    /// Process on-CPU seconds of the call (all threads).
    pub cpu_s: f64,
}

/// One pass over the kernels.
#[derive(Clone, Debug, Default)]
pub struct SampledAgg {
    /// Per-kernel runs, in run order.
    pub runs: Vec<KernelRun>,
    /// CPI error of each kernel's estimate against full detail, percent.
    pub cpi_err_pct: Vec<f64>,
}

impl SampledAgg {
    /// The `sample` per-layer numbers a pass yields by itself.
    pub fn layer(&self) -> Layer {
        let sum = |f: fn(&KernelRun) -> u64| self.runs.iter().map(f).sum::<u64>();
        let count = |r: Rung| {
            self.runs
                .iter()
                .filter(|k| Rung::of_period(k.period) == r)
                .count()
        };
        let wall: f64 = self.runs.iter().map(|k| k.wall_s).sum();
        let full_wall: f64 = self
            .runs
            .iter()
            .filter(|k| Rung::of_period(k.period) == Rung::Full)
            .map(|k| k.wall_s)
            .sum();
        let mut l = Layer::default();
        l.set("sample.full_share", full_wall / wall.max(f64::MIN_POSITIVE));
        l.set(
            "sample.detailed_frac",
            sum(|k| k.detailed_insts) as f64 / sum(|k| k.total_insts).max(1) as f64,
        );
        l.set("sample.windows", sum(|k| k.windows) as f64);
        l.set("sample.kernels_rung0", count(Rung::Sparse) as f64);
        l.set("sample.kernels_rung1", count(Rung::Dense) as f64);
        l.set("sample.kernels_full", count(Rung::Full) as f64);
        l
    }
}

/// Runs every kernel in `order`, checking each result against its
/// functional run to `halt`.
pub fn pass(
    kernels: &[Workload],
    refs: &[FuncRef],
    order: &[usize],
    cpi_ref: Option<&RefTable>,
    t: &mut Tracer,
    ledger: &mut Ledger,
) -> SampledAgg {
    let mut agg = SampledAgg::default();
    for &k in order {
        let w = &kernels[k];
        let sw = Stopwatch::start();
        let r = t.span(
            || format!("kernel:{}", w.name),
            |t| {
                t.span(
                    || "sample.run_sampled_auto".into(),
                    |_| run_sampled_auto(&w.program, machine(), u64::MAX),
                )
            },
        );
        let (wall_s, cpu_s) = (sw.wall_s(), sw.cpu_s());

        let want = refs[k];
        let mut problems: Vec<String> = [
            expect_eq("halted", r.halted, true),
            expect_eq("checksum", r.checksum, want.checksum),
            expect_eq("instructions", r.total_insts, want.retired),
        ]
        .into_iter()
        .flatten()
        .collect();
        if !r.segment_faults.is_empty() || !r.exact_segments.is_empty() {
            problems.push(format!(
                "{} segment faults, {} exact-replay segments",
                r.segment_faults.len(),
                r.exact_segments.len()
            ));
        }
        ledger.record(w.name, 1, &problems);

        if let Some(full) = cpi_ref.and_then(|t| t.cpi(w.name, "RENO")) {
            agg.cpi_err_pct
                .push((r.est_cpi() - full).abs() / full * 100.0);
        }
        agg.runs.push(KernelRun {
            kernel: k,
            period: r.period,
            grid_start: r.grid_start,
            total_insts: r.total_insts,
            detailed_insts: r.detailed_insts,
            windows: r.intervals.len() as u64,
            wall_s,
            cpu_s,
        });
    }
    agg
}

/// The sampling shape `run_sampled_auto` used for a sampled (not
/// full-detail) result with this head and period.
pub fn rung_config(grid_start: u64, period: u64) -> SampleConfig {
    SampleConfig::new(WARMUP, INTERVAL, period)
        .with_head(grid_start)
        .with_max_insts(u64::MAX)
}

/// Splits sampled runs into their two phases, timed from outside: the
/// phase-1 checkpoint pass and the detailed windows driven from it.
/// Returns (pass seconds, window seconds), process CPU.
pub fn phase_probe(
    kernels: &[Workload],
    cfg: &MachineConfig,
    shapes: &[(usize, SampleConfig)],
    t: &mut Tracer,
) -> (f64, f64) {
    let (mut pass_s, mut windows_s) = (0.0, 0.0);
    for (k, sc) in shapes {
        let w = &kernels[*k];
        t.span(
            || format!("probe:sample/{}", w.name),
            |t| {
                let sw = Stopwatch::start();
                let pass = t.span(
                    || "sample.checkpoint_pass".into(),
                    |_| CheckpointPass::compute(&w.program, sc),
                );
                pass_s += sw.cpu_s();
                let sw = Stopwatch::start();
                let r = t.span(
                    || "sample.run_sampled_with_pass".into(),
                    |_| run_sampled_with_pass(&w.program, cfg.clone(), sc, &pass),
                );
                windows_s += sw.cpu_s();
                if r.is_err() {
                    eprintln!("perfbench: phase probe of {} rejected its own pass", w.name);
                }
            },
        );
    }
    (pass_s, windows_s)
}
