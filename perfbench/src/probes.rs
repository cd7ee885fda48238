//! Replay probes: each times one layer's public entry point on inputs
//! drawn from the workload's own kernels, on the calling thread.
//!
//! * `func` — bare `Cpu::run_decoded` to `halt` (the ladder's length
//!   probe), an `Oracle` drained over the detail fuel, and
//!   `Checkpoint::{to,from}_bytes` of a mid-run checkpoint;
//! * `mem` — the kernel's address stream replayed through
//!   `MemHierarchy::warm_data` / `warm_inst`;
//! * `uarch` — the control stream replayed through `FrontEnd::process`,
//!   classified with `classify_control`;
//! * `dse` — `Store::put` / `Store::get` of the checkpoints.

use crate::detail::FUEL;
use crate::host::thread_cpu_ns;
use crate::span::Tracer;
use crate::stats::median;
use crate::Layer;
use reno_core::RenoConfig;
use reno_dse::{EntryKind, Store};
use reno_func::{Checkpoint, Cpu, DecodedProgram, Oracle};
use reno_isa::Program;
use reno_mem::{MemHierarchy, ServedBy};
use reno_sim::{classify_control, MachineConfig};
use reno_uarch::{ControlKind, FrontEnd};
use reno_workloads::Workload;
use std::path::Path;

/// Serialize/deserialize repetitions per checkpoint.
const CKPT_REPS: usize = 20;

/// A kernel's memory stream: (address, kind) with kind 0 load, 1 store,
/// 2 instruction-line fetch.
type MemStream = Vec<(u64, u8)>;

/// A kernel's control stream: (pc, kind, taken, target).
type CtrlStream = Vec<(u64, ControlKind, bool, u64)>;

fn streams(program: &Program, line_bytes: u64) -> (MemStream, CtrlStream) {
    let (mut mem, mut ctrl) = (Vec::new(), Vec::new());
    let mut last_line = u64::MAX;
    for d in Oracle::new(program, FUEL) {
        let addr = Program::inst_addr(d.pc);
        if addr / line_bytes != last_line {
            last_line = addr / line_bytes;
            mem.push((addr, 2));
        }
        let op = d.inst.op;
        if op.is_load() {
            mem.push((d.mem_addr, 0));
        } else if op.is_store() {
            mem.push((d.mem_addr, 1));
        }
        if op.is_control() {
            ctrl.push((d.pc as u64, classify_control(&d), d.taken, d.next_pc as u64));
        }
    }
    (mem, ctrl)
}

/// CPU ns the calling thread spends in `f`, and its result.
fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = thread_cpu_ns();
    let r = f();
    (thread_cpu_ns() - t0, r)
}

/// Calls `f` `CKPT_REPS` times and returns the last result.
fn repeat<R>(mut f: impl FnMut() -> R) -> R {
    let mut r = f();
    for _ in 1..CKPT_REPS {
        r = std::hint::black_box(f());
    }
    r
}

/// Runs every probe over `kernels`; `dir` holds the probe store and is
/// removed afterwards.
pub fn run(kernels: &[Workload], dir: &Path, t: &mut Tracer) -> Layer {
    let cfg = MachineConfig::four_wide(RenoConfig::reno());
    let line_bytes = cfg.hier.l1i.line_bytes as u64;
    let mut l = Layer::default();

    // func: the bare engine to halt, then the oracle over the detail fuel.
    let (mut run_ns, mut run_insts) = (0u64, 0u64);
    let (mut oracle_ns, mut oracle_insts) = (0u64, 0u64);
    for w in kernels {
        t.span(
            || format!("probe:func/{}", w.name),
            |t| {
                let (ns, n) = t.span(
                    || "func.run_decoded".into(),
                    |_| {
                        timed(|| {
                            let mut cpu = Cpu::new(&w.program);
                            let mut dp = DecodedProgram::new(&w.program);
                            match cpu.run_decoded(&mut dp, u64::MAX) {
                                Ok(r) => r.executed,
                                Err(_) => cpu.executed(),
                            }
                        })
                    },
                );
                run_ns += ns;
                run_insts += n;
                let (ns, n) = t.span(
                    || "func.oracle".into(),
                    |_| timed(|| Oracle::new(&w.program, FUEL).count() as u64),
                );
                oracle_ns += ns;
                oracle_insts += n;
            },
        );
    }
    l.set(
        "func.run_minst_per_s",
        run_insts as f64 / 1e6 / (run_ns.max(1) as f64 / 1e9),
    );
    l.set(
        "func.oracle_ns_per_inst",
        oracle_ns as f64 / oracle_insts.max(1) as f64,
    );

    // mem and uarch: replay each kernel's streams into fresh structures.
    let (mut mem_ns, mut accesses, mut data, mut l1d, mut l2) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut fe_ns, mut branches, mut cond, mut cond_wrong) = (0u64, 0u64, 0u64, 0u64);
    for w in kernels {
        let (mem, ctrl) = streams(&w.program, line_bytes);
        t.span(
            || format!("probe:replay/{}", w.name),
            |t| {
                let mut h = MemHierarchy::new(cfg.hier);
                let (ns, served) = t.span(
                    || "mem.warm".into(),
                    |_| {
                        timed(|| {
                            let mut served = [0u64; 3];
                            for &(addr, kind) in &mem {
                                let s = match kind {
                                    2 => {
                                        h.warm_inst(addr);
                                        continue;
                                    }
                                    k => h.warm_data(addr, k == 1),
                                };
                                served[match s {
                                    ServedBy::L1 => 0,
                                    ServedBy::L2 => 1,
                                    ServedBy::Mem => 2,
                                }] += 1;
                            }
                            served
                        })
                    },
                );
                mem_ns += ns;
                accesses += mem.len() as u64;
                data += served.iter().sum::<u64>();
                l1d += served[0];
                l2 += served[1];

                let mut fe = FrontEnd::new(cfg.bpred, cfg.btb, cfg.ras_entries);
                let (ns, ()) = t.span(
                    || "uarch.process".into(),
                    |_| {
                        timed(|| {
                            for &(pc, kind, taken, target) in &ctrl {
                                fe.process(pc, kind, taken, target);
                            }
                        })
                    },
                );
                fe_ns += ns;
                branches += ctrl.len() as u64;
                cond += fe.stats().cond;
                cond_wrong += fe.stats().cond_wrong;
            },
        );
    }
    let pct = |a: u64, b: u64| a as f64 * 100.0 / b.max(1) as f64;
    l.set(
        "mem.warm_ns_per_access",
        mem_ns as f64 / accesses.max(1) as f64,
    );
    l.set("mem.l1d_hit_pct", pct(l1d, data));
    l.set("mem.l2_hit_pct", pct(l2, data - l1d));
    l.set(
        "uarch.warm_ns_per_branch",
        fe_ns as f64 / branches.max(1) as f64,
    );
    l.set("uarch.cond_mispredict_pct", pct(cond_wrong, cond));

    // Checkpoints taken after the detail fuel, serialized and read back.
    let (mut ser_ns, mut de_ns, mut bytes_total) = (0u64, 0u64, 0u64);
    let mut blobs: Vec<Vec<u8>> = Vec::new();
    for w in kernels {
        let mut cpu = Cpu::new(&w.program);
        let mut dp = DecodedProgram::new(&w.program);
        let _ = cpu.run_decoded(&mut dp, FUEL);
        let ck = Checkpoint::take(&cpu, &w.program);
        t.span(
            || format!("probe:checkpoint/{}", w.name),
            |t| {
                let (ns, bytes) = t.span(
                    || "func.checkpoint_to_bytes".into(),
                    |_| timed(|| repeat(|| ck.to_bytes())),
                );
                ser_ns += ns;
                let (ns, back) = t.span(
                    || "func.checkpoint_from_bytes".into(),
                    |_| timed(|| repeat(|| Checkpoint::from_bytes(&bytes))),
                );
                de_ns += ns;
                let ok = matches!(back, Ok(c) if c.to_bytes() == bytes);
                assert!(ok, "{}: checkpoint does not round-trip", w.name);
                bytes_total += bytes.len() as u64;
                blobs.push(bytes);
            },
        );
    }
    let per_byte = |ns: u64| ns as f64 / (bytes_total.max(1) * CKPT_REPS as u64) as f64;
    l.set("func.ckpt_bytes", bytes_total as f64);
    l.set("func.ckpt_ser_ns_per_byte", per_byte(ser_ns));
    l.set("func.ckpt_de_ns_per_byte", per_byte(de_ns));

    // The store: put every checkpoint, then read each back.
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir).expect("create the probe store");
    let (mut put_ms, mut get_ms) = (Vec::new(), Vec::new());
    t.span(
        || "probe:store".into(),
        |t| {
            for (i, b) in blobs.iter().enumerate() {
                let t0 = std::time::Instant::now();
                let ok = t.span(
                    || "dse.store_put".into(),
                    |_| store.put(EntryKind::Pass, i as u64, b),
                );
                put_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                assert!(ok, "probe store put {i} failed");
            }
            for (i, b) in blobs.iter().enumerate() {
                let t0 = std::time::Instant::now();
                let got = t.span(
                    || "dse.store_get".into(),
                    |_| store.get(EntryKind::Pass, i as u64),
                );
                get_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                assert!(got.as_ref() == Some(b), "probe store get {i} differs");
            }
        },
    );
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    l.set("dse.put_ms", median(&put_ms));
    l.set("dse.get_ms", median(&get_ms));
    l
}
