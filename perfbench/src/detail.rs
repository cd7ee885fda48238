//! The `detail` workload: full detailed simulation of every kernel under
//! baseline, CF+ME and RENO on the 4-wide machine, one job at a time.
//!
//! The same job runner serves as the `sim` probe of the other workloads
//! (a shorter fuel over their own kernels).

use crate::host::{thread_cpu_ns, wall_ns};
use crate::reference::RefTable;
use crate::span::Tracer;
use crate::stats::{expect_eq, Ledger};
use crate::Layer;
use reno_core::RenoConfig;
use reno_func::{Cpu, DecodedProgram};
use reno_isa::Program;
use reno_sim::{MachineConfig, Simulator};
use reno_workloads::Workload;

/// Dynamic-instruction budget of a detail job (the figure harness's fuel).
pub const FUEL: u64 = 400_000;

/// Cycle cap of a job (a safety net).
const MAX_CYCLES: u64 = 1 << 28;

/// A configuration of the trio: metric suffix, reference label, RENO
/// setting.
pub type TrioConfig = (&'static str, &'static str, fn() -> RenoConfig);

/// The configuration trio.
pub const CONFIGS: [TrioConfig; 3] = [
    ("baseline", "BASE", RenoConfig::baseline),
    ("cf_me", "CFME", RenoConfig::cf_me),
    ("reno", "RENO", RenoConfig::reno),
];

/// What a bare functional run of a program produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuncRef {
    /// Output checksum.
    pub checksum: u64,
    /// Architectural state digest.
    pub digest: u64,
    /// Instructions executed.
    pub retired: u64,
    /// Whether the run reached `halt`.
    pub halted: bool,
}

/// Runs `program` on the predecoded functional engine for `fuel`
/// instructions (the reference every timing result must match).
pub fn func_ref(program: &Program, fuel: u64) -> FuncRef {
    let mut cpu = Cpu::new(program);
    let mut dp = DecodedProgram::new(program);
    let retired = match cpu.run_decoded(&mut dp, fuel) {
        Ok(r) => r.executed,
        Err(_) => cpu.executed(),
    };
    FuncRef {
        checksum: cpu.checksum(),
        digest: cpu.state_digest(),
        retired,
        halted: cpu.halted(),
    }
}

/// Sums over a set of detailed jobs.
#[derive(Clone, Debug, Default)]
pub struct SimAgg {
    /// Host on-CPU ns per configuration.
    pub cpu_ns: [u64; 3],
    /// Retired instructions per configuration.
    pub insts: [u64; 3],
    /// Simulated cycles per configuration.
    pub cycles: [u64; 3],
    /// Issued micro-ops (all jobs).
    pub issued: u64,
    /// Squashed instructions (all jobs).
    pub squashed: u64,
    /// Replays (all jobs).
    pub replays: u64,
    /// RENO jobs: instructions renamed and eliminated.
    pub renamed: u64,
    /// RENO jobs: instructions eliminated.
    pub eliminated: u64,
    /// RENO jobs: integration-table lookups.
    pub it_lookups: u64,
    /// RENO jobs: integration-table hits.
    pub it_hits: u64,
    /// MSHR merges (all jobs).
    pub merges: u64,
    /// Main-memory accesses (all jobs).
    pub mem_accesses: u64,
    /// (job, wall seconds, on-CPU seconds) of each job, in run order.
    pub ops: Vec<(usize, f64, f64)>,
    /// CPI error of each job against the full-run reference, in percent.
    pub cpi_err_pct: Vec<f64>,
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 * 100.0 / den as f64
    }
}

impl SimAgg {
    /// Retired instructions over every job.
    pub fn retired(&self) -> u64 {
        self.insts.iter().sum()
    }

    /// The `sim`, `core` and `mem.mshr_merge_pct` per-layer numbers.
    pub fn layer(&self) -> Layer {
        let ns = |c: usize| self.cpu_ns[c] as f64 / self.insts[c].max(1) as f64;
        let mut l = Layer::default();
        for (c, (suffix, _, _)) in CONFIGS.iter().enumerate() {
            l.set(&format!("sim.ns_per_inst.{suffix}"), ns(c));
        }
        l.set(
            "sim.ns_per_cycle",
            self.cpu_ns.iter().sum::<u64>() as f64 / self.cycles.iter().sum::<u64>().max(1) as f64,
        );
        l.set(
            "sim.issued_per_retired",
            self.issued as f64 / self.retired().max(1) as f64,
        );
        l.set("sim.squashed", self.squashed as f64);
        l.set("sim.replays", self.replays as f64);
        l.set("core.reno_ns_per_inst", ns(2) - ns(0));
        l.set("core.elim_pct", pct(self.eliminated, self.renamed));
        l.set("core.it_hit_pct", pct(self.it_hits, self.it_lookups));
        l.set(
            "mem.mshr_merge_pct",
            pct(self.merges, self.merges + self.mem_accesses),
        );
        l
    }
}

/// Runs the jobs `order` names (job `j` is kernel `j / 3` under config
/// `j % 3`), each for `fuel` instructions, checking every result against
/// the functional reference `refs[kernel]` (taken at the same fuel).
pub fn run_jobs(
    kernels: &[Workload],
    refs: &[FuncRef],
    fuel: u64,
    order: &[usize],
    cpi_ref: Option<&RefTable>,
    t: &mut Tracer,
    ledger: &mut Ledger,
) -> SimAgg {
    let mut agg = SimAgg::default();
    for &j in order {
        let (k, c) = (j / CONFIGS.len(), j % CONFIGS.len());
        let (suffix, label, reno) = CONFIGS[c];
        let w = &kernels[k];
        let cfg = MachineConfig::four_wide(reno());
        let (wall0, cpu0) = (wall_ns(), thread_cpu_ns());
        let r = t.span(
            || format!("job:{}/{suffix}", w.name),
            |t| {
                t.span(
                    || "sim.run".into(),
                    |_| Simulator::with_fuel(&w.program, cfg, fuel).run(MAX_CYCLES),
                )
            },
        );
        let cpu_ns = thread_cpu_ns() - cpu0;
        agg.cpu_ns[c] += cpu_ns;
        agg.ops
            .push((j, (wall_ns() - wall0) as f64 / 1e9, cpu_ns as f64 / 1e9));

        let want = refs[k];
        let problems: Vec<String> = [
            expect_eq("checksum", r.checksum, want.checksum),
            expect_eq("digest", r.digest, want.digest),
            expect_eq("retired", r.retired, want.retired),
        ]
        .into_iter()
        .flatten()
        .collect();
        ledger.record(&format!("{}/{suffix}", w.name), 1, &problems);

        agg.insts[c] += r.retired;
        agg.cycles[c] += r.cycles;
        agg.issued += r.stats.issued;
        agg.squashed += r.stats.squashed;
        agg.replays += r.stats.replays;
        agg.merges += r.hier.merges;
        agg.mem_accesses += r.hier.mem_accesses;
        if c == 2 {
            agg.renamed += r.reno.renamed;
            agg.eliminated += r.reno.eliminated();
            agg.it_lookups += r.it.lookups;
            agg.it_hits += r.it.hits;
        }
        if let Some(full) = cpi_ref.and_then(|t| t.cpi(w.name, label)) {
            let cpi = r.cycles as f64 / r.retired.max(1) as f64;
            agg.cpi_err_pct.push((cpi - full).abs() / full * 100.0);
        }
    }
    agg
}
