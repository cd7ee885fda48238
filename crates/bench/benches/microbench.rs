//! Component microbenchmarks: throughput of the structures on the rename
//! critical path (host-side performance of the simulator's building blocks).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use reno_core::{
    IntegrationTable, ItConfig, ItKey, ItOperand, Mapping, PhysReg, RefCountFreeList, Reno,
    RenoConfig,
};
use reno_func::{Checkpoint, Cpu, DecodedProgram};
use reno_isa::{Asm, Inst, Opcode, Program, Reg};
use reno_mem::{Cache, CacheConfig, MemHierarchy};
use reno_sim::MachineConfig;
use reno_uarch::{HybridPredictor, StoreSets};

fn bench_rename(c: &mut Criterion) {
    // A representative 4-instruction group: load, addi, add, branch-feeding
    // compare — renamed and rolled back so state stays bounded.
    let insts = [
        Inst::load(Opcode::Ld, Reg::T0, Reg::S0, 8),
        Inst::alu_ri(Opcode::Addi, Reg::S0, Reg::S0, 8),
        Inst::alu_rr(Opcode::Add, Reg::V0, Reg::V0, Reg::T0),
        Inst::alu_ri(Opcode::Slti, Reg::T1, Reg::S0, 100),
    ];
    for (name, cfg) in [
        ("baseline", RenoConfig::baseline()),
        ("reno", RenoConfig::reno()),
    ] {
        c.bench_function(&format!("rename_group_{name}"), |b| {
            let mut reno = Reno::new(cfg);
            b.iter(|| {
                reno.begin_group();
                let mut renamed = Vec::with_capacity(4);
                for (pc, i) in insts.iter().enumerate() {
                    renamed.push(reno.rename(pc as u64, *i).expect("registers available"));
                }
                for r in renamed.iter().rev() {
                    reno.rollback(r);
                }
                black_box(renamed.len())
            })
        });
    }
    // The pipeline's path: the rename shape is precomputed once per static
    // instruction (decode-time, cached in the block templates) instead of
    // re-derived per dynamic rename. The delta against `rename_group_reno`
    // is what the pre-classification buys.
    c.bench_function("rename_group_reno_preclassified", |b| {
        let mut reno = Reno::new(RenoConfig::reno());
        let classes: Vec<reno_isa::RenameClass> =
            insts.iter().map(reno_isa::RenameClass::of).collect();
        b.iter(|| {
            reno.begin_group();
            let mut renamed = Vec::with_capacity(4);
            for (pc, (i, cls)) in insts.iter().zip(&classes).enumerate() {
                renamed.push(
                    reno.rename_classified(pc as u64, *i, cls, true)
                        .expect("registers available"),
                );
            }
            for r in renamed.iter().rev() {
                reno.rollback(r);
            }
            black_box(renamed.len())
        })
    });
}

fn bench_it(c: &mut Criterion) {
    c.bench_function("integration_table_lookup_hit", |b| {
        let mut it = IntegrationTable::new(ItConfig::default());
        let fl = RefCountFreeList::new(160, 33);
        let key = ItKey {
            op: Opcode::Ld,
            imm: 8,
            in1: ItOperand::of(Mapping::direct(PhysReg(5)), &fl),
            in2: None,
        };
        it.insert(key, Mapping::direct(PhysReg(40)), &fl);
        b.iter(|| black_box(it.lookup(&key, &fl)))
    });
}

fn bench_refcount(c: &mut Criterion) {
    c.bench_function("refcount_alloc_share_free", |b| {
        let mut fl = RefCountFreeList::new(160, 32);
        b.iter(|| {
            let p = fl.alloc().expect("free registers");
            fl.incref(p);
            fl.decref(p);
            fl.decref(p);
            black_box(p)
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("dcache_probe_hit", |b| {
        let mut dc = Cache::new(CacheConfig {
            size_bytes: 32 << 10,
            assoc: 2,
            line_bytes: 32,
            hit_latency: 2,
        });
        dc.probe_and_fill(0x1000, false);
        b.iter(|| black_box(dc.probe_and_fill(0x1000, false)))
    });
    // The same hit stream through the reference full set scan: the delta
    // against `dcache_probe_hit` is what the MRU line memo buys on the
    // same-line accesses that dominate loop kernels.
    c.bench_function("dcache_probe_hit_nomru", |b| {
        let mut dc = Cache::new(CacheConfig {
            size_bytes: 32 << 10,
            assoc: 2,
            line_bytes: 32,
            hit_latency: 2,
        });
        dc.probe_and_fill(0x1000, false);
        b.iter(|| black_box(dc.probe_and_fill_unmemoized(0x1000, false)))
    });
}

fn bench_bpred(c: &mut Criterion) {
    c.bench_function("hybrid_predict_update", |b| {
        let mut p = HybridPredictor::default();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(p.predict_and_update(i & 0xffff, i & 3 != 0))
        })
    });
}

fn bench_storesets(c: &mut Criterion) {
    c.bench_function("storesets_rename_cycle", |b| {
        let mut ss = StoreSets::default();
        ss.train_violation(0x10, 0x20);
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            ss.rename_store(0x20, seq);
            let d = ss.load_dependence(0x10);
            ss.store_executed(0x20, seq);
            black_box(d)
        })
    });
}

/// A mixed ~12-instruction loop body: the functional engines' steady diet.
fn func_kernel(iters: i64) -> Program {
    let mut a = Asm::new();
    let buf = a.zeros("buf", 2048);
    a.li(Reg::S0, buf as i64);
    a.li(Reg::T0, iters);
    a.li(Reg::V0, 0);
    a.label("loop");
    a.andi(Reg::T1, Reg::T0, 255);
    a.slli(Reg::T1, Reg::T1, 3);
    a.add(Reg::T1, Reg::T1, Reg::S0);
    a.ld(Reg::T2, Reg::T1, 0);
    a.add(Reg::V0, Reg::V0, Reg::T2);
    a.st(Reg::V0, Reg::T1, 0);
    a.xor(Reg::V0, Reg::V0, Reg::T0);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.out(Reg::V0);
    a.halt();
    a.assemble().unwrap()
}

/// Predecoded-block dispatch vs the per-instruction reference engine, over
/// the same ~12k-instruction run (reported per run; divide by ~12k for
/// per-instruction cost).
fn bench_func_engines(c: &mut Criterion) {
    let p = func_kernel(1000);
    c.bench_function("func_step_12k_insts", |b| {
        b.iter(|| {
            let mut cpu = Cpu::new(&p);
            black_box(cpu.run_program(&p, 1 << 20).unwrap().executed)
        })
    });
    c.bench_function("func_blocks_12k_insts", |b| {
        // The block cache persists across iterations, as it does across a
        // sampled run's fast-forwards.
        let mut dp = DecodedProgram::new(&p);
        b.iter(|| {
            let mut cpu = Cpu::new(&p);
            black_box(cpu.run_decoded(&mut dp, 1 << 20).unwrap().executed)
        })
    });
}

/// The oracle feed that drives every detailed-simulation cycle: the
/// per-instruction `Oracle::next` iterator vs the block-batched
/// `Oracle::refill` prefilling sequence-indexed rings, over the same
/// ~12k-instruction run (the streams are bit-identical; only the host cost
/// differs).
fn bench_oracle_feed(c: &mut Criterion) {
    use reno_func::{DynInst, Oracle};
    use reno_isa::RenameClass;
    let p = func_kernel(1000);
    c.bench_function("oracle_next_12k_insts", |b| {
        b.iter(|| {
            let mut n = 0u64;
            let o = Oracle::new(&p, 1 << 20);
            for d in o {
                n += d.seq & 1;
            }
            black_box(n)
        })
    });
    c.bench_function("oracle_refill_12k_insts", |b| {
        // A ring the size of the detailed simulator's (128-entry ROB class).
        const RING: usize = 256;
        let dummy = Inst::alu_ri(Opcode::Addi, Reg::ZERO, Reg::ZERO, 0);
        let mut ring = vec![
            DynInst {
                seq: u64::MAX,
                pc: 0,
                inst: dummy,
                next_pc: 0,
                taken: false,
                dst_val: 0,
                mem_addr: 0,
            };
            RING
        ];
        let mut classes = vec![RenameClass::of(&dummy); RING];
        b.iter(|| {
            let mut n = 0u64;
            let mut o = Oracle::new(&p, 1 << 20);
            loop {
                let got = o.refill(&mut ring, &mut classes, RING as u64 - 1, RING as u64);
                if got == 0 {
                    break;
                }
                n += got as u64;
            }
            black_box(n)
        })
    });
}

/// The per-segment setup cost of a shard-parallel sampled run: deserialize
/// and restore a dirty-page checkpoint, then rebuild warm state by replaying
/// 2k instructions of functional warming from the segment head.
fn bench_segment_restore(c: &mut Criterion) {
    let p = func_kernel(4000);
    let base = Cpu::new(&p);
    let base_mem = base.mem().clone();
    let mut cpu = Cpu::new(&p);
    let mut dp = DecodedProgram::new(&p);
    cpu.advance_decoded(&mut dp, 20_000).unwrap();
    let bytes = Checkpoint::take_with_dirty_pages(&cpu, &cpu.mem().dirty_pages_sorted()).to_bytes();
    let mcfg = MachineConfig::four_wide(RenoConfig::reno());

    c.bench_function("checkpoint_restore_plus_2k_warm", |b| {
        b.iter(|| {
            let restored = Checkpoint::from_bytes(&bytes)
                .expect("round trip")
                .restore_with_base(&base_mem);
            let mut warm_mem = MemHierarchy::new(mcfg.hier);
            let mut dpw = DecodedProgram::new(&p);
            let mut cur = reno_func::BlockCursor::new();
            let mut cpu = restored;
            let until = cpu.executed() + 2048;
            while cpu.executed() < until {
                let d = cpu.step_decoded(&mut dpw, &mut cur).unwrap().unwrap();
                let op = d.inst.op;
                if op.is_load() || op.is_store() {
                    warm_mem.warm_data(d.mem_addr, op.is_store());
                }
            }
            black_box(cpu.executed())
        })
    });
}

criterion_group!(
    benches,
    bench_rename,
    bench_it,
    bench_refcount,
    bench_cache,
    bench_bpred,
    bench_storesets,
    bench_func_engines,
    bench_oracle_feed,
    bench_segment_restore
);
criterion_main!(benches);
