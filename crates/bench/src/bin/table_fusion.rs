//! §3.3 sensitivity: what if 3-input carry-save adders were NOT free and
//! every fused operation took an extra cycle?
//!
//! Paper shape: RENO_CF loses only 20–25% of its relative performance
//! advantage (1–2% absolute) when every fused operation pays one cycle; the
//! resource/bandwidth benefits remain intact.

use reno_bench::{amean, run_jobs, scale_from_env};
use reno_core::RenoConfig;
use reno_sim::MachineConfig;
use reno_workloads::{media_suite, spec_suite, Workload};

/// Smallest |CF free| speedup (%) the `kept` ratio divides by. Below it the
/// speedup is within the table's resolution, and the ratio only amplifies
/// rounding (it printed 1643% and -744% at `RENO_SCALE=small`).
const MIN_FREE_PCT: f64 = 0.5;

/// The share of the free-fusion speedup kept when fusion costs a cycle,
/// as a percentage, or `None` when the free speedup is too small to divide
/// by.
fn kept_pct(free: f64, paid: f64) -> Option<f64> {
    (free.abs() >= MIN_FREE_PCT).then(|| paid / free * 100.0)
}

/// Right-aligns an optional whole percentage in `width` columns (`n/a`
/// when absent).
fn pct_cell(v: Option<f64>, width: usize) -> String {
    match v {
        Some(v) => format!("{v:>width$.0}"),
        None => format!("{:>width$}", "n/a"),
    }
}

fn panel(suite_name: &str, workloads: &[Workload]) {
    let jobs: Vec<_> = workloads
        .iter()
        .flat_map(|w| {
            [
                (w.clone(), MachineConfig::four_wide(RenoConfig::baseline())),
                (w.clone(), MachineConfig::four_wide(RenoConfig::cf_me())),
                (
                    w.clone(),
                    MachineConfig::four_wide(RenoConfig::cf_me()).with_fused_extra_cycle(),
                ),
            ]
        })
        .collect();
    let results = run_jobs(&jobs);

    println!("\n== Fusion-cost sensitivity [{suite_name}] ==");
    println!(
        "{:<10} {:>12} {:>14} {:>12}",
        "bench", "CF free (%)", "CF +1cyc (%)", "kept (%)"
    );
    println!("{}", "-".repeat(52));
    let mut free = Vec::new();
    let mut slow = Vec::new();
    let mut it = results.into_iter();
    for w in workloads {
        let base = it.next().expect("job list covers the panel");
        let fast = it.next().expect("job list covers the panel");
        let paid = it.next().expect("job list covers the panel");
        let s_fast = fast.speedup_pct_vs(&base);
        let s_paid = paid.speedup_pct_vs(&base);
        println!(
            "{:<10} {:>12.1} {:>14.1} {}",
            w.name,
            s_fast,
            s_paid,
            pct_cell(kept_pct(s_fast, s_paid), 12)
        );
        free.push(s_fast);
        slow.push(s_paid);
    }
    let (f, s) = (amean(&free), amean(&slow));
    let kept = kept_pct(f, s);
    println!("{:<10} {f:>12.1} {s:>14.1} {}", "amean", pct_cell(kept, 12));
    println!(
        "advantage lost with 1-cycle fusion: {}% relative ({:.1}% absolute)",
        pct_cell(kept.map(|k| 100.0 - k), 0),
        f - s
    );
}

fn main() {
    let scale = scale_from_env();
    panel("SPECint", &spec_suite(scale));
    panel("MediaBench", &media_suite(scale));
    println!("\npaper reference: 20-25% of RENO_CF's relative advantage lost (1-2% absolute)");
}
