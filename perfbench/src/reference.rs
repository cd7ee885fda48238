//! The accuracy reference: full-detail CPI of every kernel, kept in the
//! benchmark's own files and read, not recomputed, on every run.
//!
//! * `ref/default.tsv` — the 20 kernels at `Scale::Default` under the six
//!   sweep configurations (the first three are also the `detail` trio).
//! * `ref/large.tsv` — the 20 kernels at `Scale::Large` under RENO, the
//!   `sampled` workload's configuration.
//!
//! Each row is a full detailed simulation to `halt`
//! (`Simulator::new(..).run`). The reference is the detailed model itself,
//! which is not validated against hardware. `--reference check`
//! recomputes both tables and compares them bit for bit;
//! `--reference write` regenerates them.

use crate::sweep::sweep_configs;
use reno_par::par_map;
use reno_sim::{MachineConfig, Simulator};
use reno_workloads::{all_workloads, Scale};
use std::fmt::Write as _;

const DEFAULT_TSV: &str = include_str!("../ref/default.tsv");
const LARGE_TSV: &str = include_str!("../ref/large.tsv");

/// Cycle cap of a reference run (a safety net; every kernel halts far
/// below it).
const MAX_CYCLES: u64 = 1 << 40;

/// One full-detail run: kernel, configuration label, retired, cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefRow {
    /// Kernel name.
    pub kernel: String,
    /// Configuration label (as in the sweep spec).
    pub config: String,
    /// Instructions retired to `halt`.
    pub retired: u64,
    /// Simulated cycles.
    pub cycles: u64,
}

/// A reference table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefTable {
    /// Rows in kernel-major order.
    pub rows: Vec<RefRow>,
}

impl RefTable {
    /// Parses the tab-separated form ([`RefTable::render`]).
    pub fn parse(text: &str) -> RefTable {
        let rows = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("kernel\t") && !l.is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split('\t').collect();
                assert_eq!(f.len(), 4, "reference row `{l}` needs 4 fields");
                RefRow {
                    kernel: f[0].to_string(),
                    config: f[1].to_string(),
                    retired: f[2].parse().expect("retired is a count"),
                    cycles: f[3].parse().expect("cycles is a count"),
                }
            })
            .collect();
        RefTable { rows }
    }

    /// Full-detail CPI of `kernel` under `config`.
    pub fn cpi(&self, kernel: &str, config: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.kernel == kernel && r.config == config)
            .map(|r| r.cycles as f64 / r.retired as f64)
    }

    /// The tab-separated form.
    pub fn render(&self, scale: Scale) -> String {
        let mut out = format!(
            "# Full-detail reference at Scale::{scale:?} (Simulator::new(..).run to halt).\n\
             # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --reference write\n\
             kernel\tconfig\tretired\tcycles\n"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}",
                r.kernel, r.config, r.retired, r.cycles
            );
        }
        out
    }
}

/// The committed reference for `scale`, if the benchmark keeps one.
pub fn embedded(scale: Scale) -> Option<RefTable> {
    match scale {
        Scale::Default => Some(RefTable::parse(DEFAULT_TSV)),
        Scale::Large => Some(RefTable::parse(LARGE_TSV)),
        _ => None,
    }
}

fn file_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Large => "large.tsv",
        _ => "default.tsv",
    }
}

/// The configurations a scale's reference covers.
fn configs(scale: Scale) -> Vec<(String, MachineConfig)> {
    let all = sweep_configs(true);
    match scale {
        Scale::Large => all.into_iter().filter(|(l, _)| l == "RENO").collect(),
        _ => all,
    }
}

/// Recomputes the reference for `scale` across the worker pool.
pub fn compute(scale: Scale) -> RefTable {
    let kernels = all_workloads(scale);
    let cfgs = configs(scale);
    let jobs: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|k| (0..cfgs.len()).map(move |c| (k, c)))
        .collect();
    let rows = par_map(&jobs, |&(k, c)| {
        let r = Simulator::new(&kernels[k].program, cfgs[c].1.clone()).run(MAX_CYCLES);
        assert!(r.halted, "{} did not halt", kernels[k].name);
        RefRow {
            kernel: kernels[k].name.to_string(),
            config: cfgs[c].0.clone(),
            retired: r.retired,
            cycles: r.cycles,
        }
    });
    RefTable { rows }
}

/// `--reference check|write`: recomputes both tables and compares them
/// with the committed ones, or writes them. Returns the exit code.
pub fn reference_mode(mode: &str) -> i32 {
    let mut code = 0;
    for scale in [Scale::Default, Scale::Large] {
        let t0 = std::time::Instant::now();
        let fresh = compute(scale);
        let secs = t0.elapsed().as_secs_f64();
        match mode {
            "write" => {
                let path = format!("{}/ref/{}", env!("CARGO_MANIFEST_DIR"), file_name(scale));
                std::fs::write(&path, fresh.render(scale)).expect("write reference");
                println!("wrote {path} ({} rows, {secs:.1} s)", fresh.rows.len());
            }
            _ => {
                let committed = embedded(scale).expect("both scales are committed");
                if committed == fresh {
                    println!(
                        "{}: {} rows verified ({secs:.1} s)",
                        file_name(scale),
                        fresh.rows.len()
                    );
                } else {
                    code = 1;
                    for (a, b) in committed.rows.iter().zip(&fresh.rows) {
                        if a != b {
                            println!("{}: committed {a:?} != recomputed {b:?}", file_name(scale));
                        }
                    }
                    if committed.rows.len() != fresh.rows.len() {
                        println!("{}: row count differs", file_name(scale));
                    }
                }
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_tables_cover_every_kernel_and_config() {
        let kernels = all_workloads(Scale::Tiny);
        for scale in [Scale::Default, Scale::Large] {
            let t = embedded(scale).unwrap();
            for (label, _) in configs(scale) {
                for k in &kernels {
                    assert!(
                        t.cpi(k.name, &label).is_some(),
                        "{scale:?} {} {label}",
                        k.name
                    );
                }
            }
            assert_eq!(RefTable::parse(&t.render(scale)), t);
        }
    }
}
