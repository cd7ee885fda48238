//! The `sweep` workload: one `reno_dse::run_sweep` session on a fresh
//! on-disk store, in three phases.
//!
//! * cold — every kernel under BASE, CF+ME, RENO and RENO 6-wide, sampled;
//!   one shared checkpoint pass per kernel is computed and stored;
//! * extend — the same spec plus two configurations: the old cells come
//!   back as store reads, the new ones run from passes read back;
//! * re-run — the extended spec again, fully cached. Its report must equal
//!   the extend report byte for byte.

use crate::host::Stopwatch;
use crate::reference::RefTable;
use crate::span::Tracer;
use crate::stats::{expect_eq, Ledger};
use crate::Layer;
use reno_dse::{parse_spec, run_sweep, Mode, Store, SweepOptions, SweepStats};
use reno_sample::SampleConfig;
use reno_sim::MachineConfig;
use reno_workloads::Scale;
use std::path::Path;

/// The sampling shape of every cell: `sampled <warmup> <interval> <period>`.
pub const MODE: &str = "sampled 2048 768 12288";

/// Cold-phase configurations (label, spec arguments).
const COLD: [(&str, &str); 4] = [
    ("BASE", "four_wide baseline"),
    ("CFME", "four_wide cf_me"),
    ("RENO", "four_wide reno"),
    ("RENO6", "six_wide reno"),
];

/// Configurations the extend phase adds.
const EXTRA: [(&str, &str); 2] = [
    ("PRF96", "four_wide reno pregs=96"),
    ("SL2", "four_wide reno sched_loop=2"),
];

/// The sweep spec over `kernels` (in that order).
pub fn spec_text(scale: Scale, kernels: &[&str], extended: bool) -> String {
    let mut s = format!(
        "sweep perfbench\nscale {}\nmode {MODE}\n",
        format!("{scale:?}").to_lowercase()
    );
    for k in kernels {
        s.push_str(&format!("workload {k}\n"));
    }
    let extra: &[(&str, &str)] = if extended { &EXTRA } else { &[] };
    for (label, args) in COLD.iter().chain(extra) {
        s.push_str(&format!("config {label} {args}\n"));
    }
    s
}

/// The sweep's machine configurations, as the spec parser builds them.
pub fn sweep_configs(extended: bool) -> Vec<(String, MachineConfig)> {
    parse_spec(&spec_text(Scale::Tiny, &["gzip.c"], extended))
        .expect("the benchmark's spec parses")
        .configs
}

/// The sampling shape of every cell, as the sweep builds it from [`MODE`].
pub fn cell_shape() -> SampleConfig {
    match parse_spec(&spec_text(Scale::Tiny, &["gzip.c"], false))
        .expect("the benchmark's spec parses")
        .mode
    {
        Mode::Sampled {
            warmup,
            interval,
            period,
        } => SampleConfig::new(warmup, interval, period),
        Mode::Full => unreachable!("the sweep spec is sampled"),
    }
}

/// One phase's outcome.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Wall seconds of the `run_sweep` call.
    pub wall_s: f64,
    /// Process on-CPU seconds of the call (all threads).
    pub cpu_s: f64,
    /// The sweep's own counters.
    pub stats: SweepStats,
    /// The report.
    pub report: String,
}

/// One session.
#[derive(Clone, Debug)]
pub struct SweepAgg {
    /// Cold, extend and re-run, in that order.
    pub phases: Vec<Phase>,
    /// Committed store bytes at the end.
    pub store_bytes: u64,
    /// Per-cell CPI error of the extend report against full detail, percent.
    pub cpi_err_pct: Vec<f64>,
}

impl SweepAgg {
    /// Cells computed over cold + extend.
    pub fn computed(&self) -> u64 {
        self.phases[..2].iter().map(|p| p.stats.computed).sum()
    }

    /// Wall seconds of cold + extend.
    pub fn wall_s(&self) -> f64 {
        self.phases[..2].iter().map(|p| p.wall_s).sum()
    }

    /// Process CPU seconds of cold + extend.
    pub fn cpu_s(&self) -> f64 {
        self.phases[..2].iter().map(|p| p.cpu_s).sum()
    }

    /// The `dse` per-layer numbers a session yields by itself.
    pub fn layer(&self) -> Layer {
        let sum = |f: fn(&SweepStats) -> u64| self.phases.iter().map(|p| f(&p.stats)).sum::<u64>();
        let mut l = Layer::default();
        l.set("dse.cold_s", self.phases[0].wall_s);
        l.set("dse.extend_s", self.phases[1].wall_s);
        l.set("dse.cached_ms", self.phases[2].wall_s * 1e3);
        l.set("dse.computed", sum(|s| s.computed) as f64);
        l.set("dse.cached", sum(|s| s.cached) as f64);
        l.set("dse.passes_computed", sum(|s| s.passes_computed) as f64);
        l.set("dse.passes_cached", sum(|s| s.passes_cached) as f64);
        l.set("dse.store_bytes", self.store_bytes as f64);
        l
    }
}

/// IPC per (kernel, config label) from a report's table.
pub fn report_ipc(report: &str, labels: &[String]) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for line in report.lines().skip(3) {
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() != labels.len() + 1 || toks[0] == "amean" {
            continue;
        }
        for (label, v) in labels.iter().zip(&toks[1..]) {
            if let Ok(ipc) = v.parse::<f64>() {
                out.push((toks[0].to_string(), label.clone(), ipc));
            }
        }
    }
    out
}

/// Runs one session over `kernels` (in that order) on a fresh store under
/// `dir`, which is removed afterwards.
pub fn pass(
    scale: Scale,
    kernels: &[&str],
    dir: &Path,
    cpi_ref: Option<&RefTable>,
    t: &mut Tracer,
    ledger: &mut Ledger,
) -> SweepAgg {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir).expect("create the sweep store");
    let cold = parse_spec(&spec_text(scale, kernels, false)).expect("cold spec parses");
    let extended = parse_spec(&spec_text(scale, kernels, true)).expect("extended spec parses");
    let n = kernels.len() as u64;
    let n_old = n * COLD.len() as u64;
    let n_all = n * (COLD.len() + EXTRA.len()) as u64;
    // (phase, spec, cells it should compute, cells it should read back)
    let plan = [
        ("cold", &cold, n_old, 0),
        ("extend", &extended, n_all - n_old, n_old),
        ("rerun", &extended, 0, n_all),
    ];
    let mut phases: Vec<Phase> = Vec::new();
    for (name, spec, want_computed, want_cached) in plan {
        let sw = Stopwatch::start();
        let out = t.span(
            || format!("phase:{name}"),
            |t| {
                t.span(
                    || "dse.run_sweep".into(),
                    |_| run_sweep(spec, &store, &SweepOptions::default()),
                )
            },
        );
        let (wall_s, cpu_s) = (sw.wall_s(), sw.cpu_s());
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                ledger.record(
                    name,
                    want_computed + want_cached,
                    &[format!("run_sweep: {e}")],
                );
                continue;
            }
        };
        let s = out.stats;
        let mut problems: Vec<String> = [
            expect_eq("failed cells", s.failed, 0),
            expect_eq("timeouts", s.timeouts, 0),
            expect_eq("computed", s.computed, want_computed),
            expect_eq("cached", s.cached, want_cached),
        ]
        .into_iter()
        .flatten()
        .collect();
        if name == "rerun" {
            if let Some(ext) = phases.get(1) {
                if ext.report != out.report {
                    problems.push("re-run report differs from the extend report".into());
                }
            }
        }
        ledger.record(name, want_computed + want_cached, &problems);
        phases.push(Phase {
            wall_s,
            cpu_s,
            stats: s,
            report: out.report,
        });
    }
    let store_bytes = store.objects_bytes();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);

    let mut cpi_err_pct = Vec::new();
    if let (Some(table), Some(ext)) = (cpi_ref, phases.get(1)) {
        let labels: Vec<String> = extended.configs.iter().map(|(l, _)| l.clone()).collect();
        for (k, label, ipc) in report_ipc(&ext.report, &labels) {
            if let Some(full) = table.cpi(&k, &label) {
                cpi_err_pct.push((1.0 / ipc - full).abs() / full * 100.0);
            }
        }
    }
    if phases.len() != 3 {
        // A phase could not run: the session has no numbers to report.
        phases.resize(
            3,
            Phase {
                wall_s: 0.0,
                cpu_s: 0.0,
                stats: SweepStats::default(),
                report: String::new(),
            },
        );
    }
    SweepAgg {
        phases,
        store_bytes,
        cpi_err_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_table_parses_back() {
        let report = "sweep perfbench | scale Default | mode sampled 2048/768/12288 | IPC\n\
                      workload         BASE       CFME\n\
                      ----------------------------------\n\
                      gzip.c          1.250      1.500\n\
                      mcf             0.080      FAIL\n\
                      amean           0.665      1.500\n";
        let labels = vec!["BASE".to_string(), "CFME".to_string()];
        let got = report_ipc(report, &labels);
        assert_eq!(
            got,
            vec![
                ("gzip.c".into(), "BASE".into(), 1.25),
                ("gzip.c".into(), "CFME".into(), 1.5),
                ("mcf".into(), "BASE".into(), 0.08),
            ]
        );
    }

    #[test]
    fn spec_grows_by_two_configs() {
        assert_eq!(sweep_configs(false).len(), 4);
        let all = sweep_configs(true);
        let labels: Vec<&str> = all.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["BASE", "CFME", "RENO", "RENO6", "PRF96", "SL2"]);
    }
}
