//! Property tests on the RENO renamer's core invariants: reference-count
//! conservation, rollback-is-identity, and the constant-folding algebra.

use proptest::prelude::*;
use reno_core::{Mapping, PhysReg, Renamed, Reno, RenoConfig};
use reno_isa::{Inst, Opcode, Reg};

const POOL: [Reg; 8] = [
    Reg::V0,
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::A0,
    Reg::A1,
    Reg::A2,
];

#[derive(Clone, Debug)]
enum Step {
    Addi(usize, usize, i16),
    Add(usize, usize, usize),
    Move(usize, usize),
    Load(usize, usize, i16),
    Store(usize, usize, i16),
    NewGroup,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..8, 0usize..8, -64i16..64).prop_map(|(d, s, i)| Step::Addi(d, s, i)),
        (0usize..8, 0usize..8, 0usize..8).prop_map(|(d, a, b)| Step::Add(d, a, b)),
        (0usize..8, 0usize..8).prop_map(|(d, s)| Step::Move(d, s)),
        (0usize..8, 0usize..8, 0i16..64).prop_map(|(d, b, o)| Step::Load(d, b, o)),
        (0usize..8, 0usize..8, 0i16..64).prop_map(|(v, b, o)| Step::Store(v, b, o)),
        Just(Step::NewGroup),
    ]
}

fn inst_of(step: &Step) -> Option<Inst> {
    Some(match *step {
        Step::Addi(d, s, i) => Inst::alu_ri(Opcode::Addi, POOL[d], POOL[s], i),
        Step::Add(d, a, b) => Inst::alu_rr(Opcode::Add, POOL[d], POOL[a], POOL[b]),
        Step::Move(d, s) => Inst::alu_ri(Opcode::Addi, POOL[d], POOL[s], 0),
        Step::Load(d, b, o) => Inst::load(Opcode::Ld, POOL[d], POOL[b], o * 8),
        Step::Store(v, b, o) => Inst::store(Opcode::St, POOL[v], POOL[b], o * 8),
        Step::NewGroup => return None,
    })
}

/// Drives a renamer through the steps; returns the renamed instructions.
fn drive(reno: &mut Reno, steps: &[Step]) -> Vec<Renamed> {
    let mut out = Vec::new();
    reno.begin_group();
    for (pc, s) in steps.iter().enumerate() {
        match inst_of(s) {
            Some(inst) => match reno.rename(pc as u64, inst) {
                Ok(r) => out.push(r),
                Err(_) => break, // out of registers: stop renaming
            },
            None => reno.begin_group(),
        }
    }
    out
}

/// Counts how many map-table entries plus in-flight renames reference each
/// physical register, and checks it against the reference counts.
fn assert_counts_match_live_state(reno: &Reno, inflight: &[Renamed]) {
    let fl = reno.freelist();
    let mut expect = vec![0u32; fl.total()];
    for (_, m) in reno.map_table().iter() {
        expect[m.preg.index()] += 1;
    }
    // An in-flight instruction's *old* mapping is still referenced (it is
    // released only at retire).
    for r in inflight {
        if let Some(d) = r.dst {
            expect[d.old.preg.index()] += 1;
        }
    }
    for (p, &want) in expect.iter().enumerate() {
        assert_eq!(
            fl.count(PhysReg(p as u16)),
            want,
            "refcount mismatch on p{p}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn refcounts_equal_live_references(steps in prop::collection::vec(arb_step(), 1..200)) {
        for cfg in [RenoConfig::baseline(), RenoConfig::cf_me(), RenoConfig::reno()] {
            let mut reno = Reno::new(RenoConfig { total_pregs: 64, ..cfg });
            let inflight = drive(&mut reno, &steps);
            assert_counts_match_live_state(&reno, &inflight);
        }
    }

    #[test]
    fn full_rollback_restores_initial_state(steps in prop::collection::vec(arb_step(), 1..200)) {
        let mut reno = Reno::new(RenoConfig { total_pregs: 64, ..RenoConfig::reno() });
        let snap = reno.map_table().snapshot();
        let refs = reno.freelist().total_refs();
        let free = reno.free_pregs();
        let inflight = drive(&mut reno, &steps);
        for r in inflight.iter().rev() {
            reno.rollback(r);
        }
        prop_assert_eq!(reno.map_table().snapshot(), snap);
        prop_assert_eq!(reno.freelist().total_refs(), refs);
        prop_assert_eq!(reno.free_pregs(), free);
    }

    #[test]
    fn full_retire_conserves_registers(steps in prop::collection::vec(arb_step(), 1..200)) {
        let mut reno = Reno::new(RenoConfig { total_pregs: 64, ..RenoConfig::reno() });
        let inflight = drive(&mut reno, &steps);
        for r in &inflight {
            reno.retire(r);
        }
        // After draining, counts must exactly equal map-table references.
        assert_counts_match_live_state(&reno, &[]);
        // No register leaked: live registers = distinct mapped registers.
        let mapped: std::collections::HashSet<_> =
            reno.map_table().iter().map(|(_, m)| m.preg).collect();
        prop_assert_eq!(reno.free_pregs(), 64 - mapped.len());
    }

    #[test]
    fn folded_displacement_equals_arithmetic_sum(
        imms in prop::collection::vec(-500i16..500, 1..20)
    ) {
        // A chain of addis t0 <- t0 + imm, renamed one per group, must fold
        // into a single mapping [p_t0 : sum(imms)].
        let mut reno = Reno::new(RenoConfig::cf_me());
        let base = reno.map_table().get(Reg::T0);
        let mut sum = 0i32;
        for (pc, &imm) in imms.iter().enumerate() {
            reno.begin_group();
            let r = reno
                .rename(pc as u64, Inst::alu_ri(Opcode::Addi, Reg::T0, Reg::T0, imm))
                .unwrap();
            prop_assert!(r.is_eliminated(), "small sums never overflow");
            sum += imm as i32;
        }
        prop_assert_eq!(
            reno.map_table().get(Reg::T0),
            Mapping { preg: base.preg, disp: sum }
        );
    }

    #[test]
    fn conservative_overflow_check_is_safe(src in any::<i16>(), imm in any::<i16>()) {
        // Whatever the conservative 2-bit check accepts must truly fit.
        let mut reno = Reno::new(RenoConfig::cf_me());
        // Seed t0's displacement with `src` via an exact-mode fold.
        let mut exact = Reno::new(RenoConfig { conservative_overflow: false, ..RenoConfig::cf_me() });
        exact.begin_group();
        let seed = exact.rename(0, Inst::alu_ri(Opcode::Addi, Reg::T0, Reg::T0, src)).unwrap();
        prop_assert!(seed.is_eliminated());

        reno.begin_group();
        let a = reno.rename(0, Inst::alu_ri(Opcode::Addi, Reg::T0, Reg::T0, src)).unwrap();
        if a.is_eliminated() {
            reno.begin_group();
            let b = reno.rename(1, Inst::alu_ri(Opcode::Addi, Reg::T0, Reg::T0, imm)).unwrap();
            if b.is_eliminated() {
                let disp = b.dst.unwrap().new.disp;
                prop_assert_eq!(disp, src as i32 + imm as i32);
                prop_assert!((i16::MIN as i32..=i16::MAX as i32).contains(&disp),
                    "conservative check accepted an overflow");
            }
        }
    }
}
