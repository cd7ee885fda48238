use crate::{
    IntegrationTable, ItConfig, ItKey, ItOperand, ItStats, MapTable, Mapping, OutOfPregs, PhysReg,
    RefCountFreeList,
};
use reno_isa::{Inst, Opcode, Reg, RenameClass};

/// Which instruction population the integration table (RENO_CSE+RA) serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IntegrationMode {
    /// No integration table.
    Off,
    /// The paper's advocated division of labor: the IT handles **loads
    /// only** (RENO_CF handles ALU operations without table lookups).
    LoadsOnly,
    /// Full-blown register integration: all ALU operations and loads.
    Full,
}

/// Configuration of the RENO renamer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RenoConfig {
    /// RENO_ME: eliminate register moves (subsumed by `const_fold`).
    pub move_elim: bool,
    /// RENO_CF: fold register-immediate additions into map-table
    /// displacements.
    pub const_fold: bool,
    /// RENO_CSE+RA population.
    pub integration: IntegrationMode,
    /// Use the paper's conservative upper-2-bit displacement overflow check
    /// (cancel folding if either addend is outside ±2^14) instead of an
    /// exact 16-bit range check.
    pub conservative_overflow: bool,
    /// Ablation of §3.2's E1 rule: allow two *dependent* instructions to be
    /// eliminated in the same rename cycle (models the deeper output-select
    /// muxes the paper declines to build; they predict no performance
    /// impact because compilers fold such pairs statically).
    pub allow_dependent_elim: bool,
    /// Integration table geometry.
    pub it: ItConfig,
    /// Physical register file size (the paper's baseline: 160).
    pub total_pregs: usize,
}

impl RenoConfig {
    /// RENO disabled entirely: a conventional renamer.
    pub fn baseline() -> RenoConfig {
        RenoConfig {
            move_elim: false,
            const_fold: false,
            integration: IntegrationMode::Off,
            conservative_overflow: true,
            allow_dependent_elim: false,
            it: ItConfig::default(),
            total_pregs: 160,
        }
    }

    /// RENO_ME only (dynamic move elimination).
    pub fn me_only() -> RenoConfig {
        RenoConfig {
            move_elim: true,
            ..RenoConfig::baseline()
        }
    }

    /// RENO_ME + RENO_CF (no integration table).
    pub fn cf_me() -> RenoConfig {
        RenoConfig {
            move_elim: true,
            const_fold: true,
            ..RenoConfig::baseline()
        }
    }

    /// The paper's default RENO: CF handles register-immediate adds, the IT
    /// handles loads only.
    pub fn reno() -> RenoConfig {
        RenoConfig {
            integration: IntegrationMode::LoadsOnly,
            ..RenoConfig::cf_me()
        }
    }

    /// RENO plus full-blown integration (fig 10, second bar).
    pub fn reno_full_integration() -> RenoConfig {
        RenoConfig {
            integration: IntegrationMode::Full,
            ..RenoConfig::cf_me()
        }
    }

    /// Full-blown register integration alone, no CF/ME (fig 10, third bar).
    pub fn full_integration_only() -> RenoConfig {
        RenoConfig {
            integration: IntegrationMode::Full,
            ..RenoConfig::baseline()
        }
    }

    /// Loads-only integration alone (fig 10, final bar).
    pub fn loads_integration_only() -> RenoConfig {
        RenoConfig {
            integration: IntegrationMode::LoadsOnly,
            ..RenoConfig::baseline()
        }
    }

    /// Whether any RENO machinery is active.
    pub fn any_enabled(&self) -> bool {
        self.move_elim || self.const_fold || self.integration != IntegrationMode::Off
    }
}

impl Default for RenoConfig {
    fn default() -> RenoConfig {
        RenoConfig::reno()
    }
}

/// Why an instruction was collapsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ElimClass {
    /// RENO_ME: a register move shared its source register.
    Move,
    /// RENO_CF: a register-immediate addition folded into a displacement.
    ConstFold,
    /// RENO_CSE+RA: a load integrated an existing register (must re-execute
    /// before retirement to verify).
    LoadCse,
    /// RENO_CSE: an ALU operation integrated an existing register.
    AluCse,
}

/// Outcome of renaming one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RenamedKind {
    /// Enters the issue queue and executes normally.
    Issued,
    /// Collapsed out of the execution core.
    Eliminated(ElimClass),
}

/// A renamed source operand: physical register plus fused displacement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SrcOp {
    /// Physical register to read/bypass.
    pub preg: crate::PhysReg,
    /// Displacement to fuse (zero for conventional operands).
    pub disp: i32,
}

/// Destination bookkeeping for retire/rollback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DstInfo {
    /// The logical destination.
    pub lreg: Reg,
    /// The mapping installed by this instruction.
    pub new: Mapping,
    /// The mapping it replaced (freed at retire, restored at rollback).
    pub old: Mapping,
}

/// A renamed instruction: everything the pipeline needs downstream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Renamed {
    /// Static instruction index.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Issued or eliminated.
    pub kind: RenamedKind,
    /// Renamed sources, in [`Inst::srcs`] order.
    pub srcs: [Option<SrcOp>; 2],
    /// Destination bookkeeping (`None` when the instruction writes nothing).
    pub dst: Option<DstInfo>,
}

impl Renamed {
    /// Whether this instruction was collapsed.
    pub fn is_eliminated(&self) -> bool {
        matches!(self.kind, RenamedKind::Eliminated(_))
    }

    /// Whether this is an integrated load that must re-execute at retirement.
    pub fn needs_load_reexec(&self) -> bool {
        self.kind == RenamedKind::Eliminated(ElimClass::LoadCse)
    }
}

/// Elimination statistics, per class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RenoStats {
    /// Instructions renamed.
    pub renamed: u64,
    /// Moves eliminated (RENO_ME).
    pub moves: u64,
    /// Register-immediate additions folded (RENO_CF).
    pub const_folds: u64,
    /// Loads integrated (RENO_CSE+RA).
    pub load_cse: u64,
    /// ALU operations integrated (RENO_CSE).
    pub alu_cse: u64,
    /// Foldings cancelled by the displacement overflow check.
    pub cancelled_overflow: u64,
    /// Eliminations suppressed by the one-dependent-elimination-per-cycle
    /// rule (§3.2's E1 logic).
    pub cancelled_group_dep: u64,
    /// Physical registers allocated.
    pub preg_allocs: u64,
    /// Low-water mark of the free list.
    pub min_free_pregs: usize,
}

impl RenoStats {
    /// Total instructions eliminated or folded.
    pub fn eliminated(&self) -> u64 {
        self.moves + self.const_folds + self.load_cse + self.alu_cse
    }

    /// Fraction of renamed instructions eliminated, in percent.
    pub fn elimination_pct(&self) -> f64 {
        if self.renamed == 0 {
            0.0
        } else {
            self.eliminated() as f64 * 100.0 / self.renamed as f64
        }
    }
}

/// The RENO renamer: extended map table + reference-counted physical
/// registers + integration table, with the rename-group rules of §3.2.
///
/// See the crate-level docs for a worked example.
#[derive(Clone, Debug)]
pub struct Reno {
    cfg: RenoConfig,
    map: MapTable,
    freelist: RefCountFreeList,
    it: IntegrationTable,
    /// Logical registers written by an eliminated instruction in the current
    /// rename group (bitmask) — the E1 dependent-elimination filter.
    group_elim_dests: u32,
    stats: RenoStats,
}

impl Reno {
    /// Builds a renamer. Logical register `i` starts mapped to physical
    /// register `i`; the remaining registers are free.
    ///
    /// # Panics
    ///
    /// Panics if `total_pregs < 33` (32 architectural + at least 1 free).
    pub fn new(cfg: RenoConfig) -> Reno {
        assert!(
            cfg.total_pregs > Reg::COUNT,
            "need more physical than logical registers"
        );
        let freelist = RefCountFreeList::new(cfg.total_pregs, Reg::COUNT);
        let stats = RenoStats {
            min_free_pregs: freelist.free_count(),
            ..RenoStats::default()
        };
        Reno {
            cfg,
            map: MapTable::new(),
            freelist,
            it: IntegrationTable::new(cfg.it),
            group_elim_dests: 0,
            stats,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &RenoConfig {
        &self.cfg
    }

    /// Elimination statistics.
    pub fn stats(&self) -> &RenoStats {
        &self.stats
    }

    /// Integration table statistics.
    pub fn it_stats(&self) -> &ItStats {
        self.it.stats()
    }

    /// The extended map table (read-only).
    pub fn map_table(&self) -> &MapTable {
        &self.map
    }

    /// The reference-counted register file manager (read-only).
    pub fn freelist(&self) -> &RefCountFreeList {
        &self.freelist
    }

    /// Number of free physical registers.
    pub fn free_pregs(&self) -> usize {
        self.freelist.free_count()
    }

    /// Marks the start of a rename group (one rename cycle). Intra-group
    /// dependent-elimination restrictions reset here.
    pub fn begin_group(&mut self) {
        self.group_elim_dests = 0;
    }

    fn overflow_ok(&self, src_disp: i32, imm: i16) -> bool {
        if self.cfg.conservative_overflow {
            // The paper's check: compare the upper two bits of the map-table
            // displacement and the instruction immediate. Both operands being
            // sign-extended through bit 14 guarantees the 16-bit sum cannot
            // overflow; anything else conservatively cancels the folding.
            const LIM: i32 = 1 << 14;
            (-LIM..LIM).contains(&src_disp) && (-LIM..LIM).contains(&(imm as i32))
        } else {
            let folded = src_disp + imm as i32;
            (i16::MIN as i32..=i16::MAX as i32).contains(&folded)
        }
    }

    fn integration_applies(&self, cls: &RenameClass) -> bool {
        match self.cfg.integration {
            IntegrationMode::Off => false,
            IntegrationMode::LoadsOnly => cls.is_load(),
            IntegrationMode::Full => cls.is_load() || cls.is_it_alu_shape(),
        }
    }

    fn it_key(&self, inst: &Inst, srcs: &[Mapping]) -> Option<ItKey> {
        let in1 = *srcs.first()?;
        let in2 = srcs.get(1).copied();
        Some(ItKey {
            op: inst.op,
            imm: inst.imm,
            in1: ItOperand::of(in1, &self.freelist),
            in2: in2.map(|m| ItOperand::of(m, &self.freelist)),
        })
    }

    /// The load opcode whose result a store of this width produces.
    fn reverse_load_op(store: Opcode) -> Opcode {
        match store {
            Opcode::St => Opcode::Ld,
            Opcode::Stl => Opcode::Ldl,
            Opcode::Sth => Opcode::Ldh,
            Opcode::Stb => Opcode::Ldbu,
            _ => unreachable!("not a store"),
        }
    }

    /// Renames one instruction within the current group.
    ///
    /// # Errors
    ///
    /// [`OutOfPregs`] if the instruction needs a new physical register and
    /// none is free; the caller stalls and retries next cycle. Eliminated
    /// instructions never need one — RENO's register-file relief.
    pub fn rename(&mut self, pc: u64, inst: Inst) -> Result<Renamed, OutOfPregs> {
        self.rename_with(pc, inst, true)
    }

    /// Like [`Reno::rename`], but integration can be suppressed for this one
    /// instruction. The pipeline uses this to re-rename a load whose previous
    /// integration failed verification (a misintegration squash must not
    /// integrate the same load again).
    ///
    /// # Errors
    ///
    /// See [`Reno::rename`].
    pub fn rename_with(
        &mut self,
        pc: u64,
        inst: Inst,
        allow_integration: bool,
    ) -> Result<Renamed, OutOfPregs> {
        self.rename_classified(pc, inst, &RenameClass::of(&inst), allow_integration)
    }

    /// Like [`Reno::rename_with`], but with the instruction's static rename
    /// shape supplied by the caller. Decoded-block templates compute the
    /// [`RenameClass`] once per static instruction, so every dynamic rename
    /// switches on the precomputed class instead of re-deriving the source
    /// list, destination filter, and candidate shape from the `Inst`.
    ///
    /// `cls` must equal `RenameClass::of(&inst)`; [`Reno::rename_with`] is
    /// the reference path that recomputes it per call.
    ///
    /// # Errors
    ///
    /// See [`Reno::rename`].
    pub fn rename_classified(
        &mut self,
        pc: u64,
        inst: Inst,
        cls: &RenameClass,
        allow_integration: bool,
    ) -> Result<Renamed, OutOfPregs> {
        debug_assert_eq!(*cls, RenameClass::of(&inst), "stale rename class");
        // At most two sources (see `Inst::srcs`); this runs for every renamed
        // instruction, so the lookups stay on the stack — no allocation.
        let src_regs = cls.srcs();
        let n_srcs = src_regs.len();
        let mut map_buf = [self.map.get(Reg::ZERO); 2];
        for (i, &r) in src_regs.iter().enumerate() {
            map_buf[i] = self.map.get(r);
        }
        let src_maps = &map_buf[..n_srcs];
        let dst_l = cls.dst();

        let depends_on_group_elim = !self.cfg.allow_dependent_elim
            && src_regs
                .iter()
                .any(|r| self.group_elim_dests & (1 << r.index()) != 0);

        // --- Decide elimination -------------------------------------------------
        let mut kind = RenamedKind::Issued;
        let mut shared: Option<Mapping> = None;

        if let Some(_dl) = dst_l {
            // RENO_CF (subsumes RENO_ME when enabled).
            if cls.is_reg_imm_add() && (self.cfg.const_fold || self.cfg.move_elim) {
                let src = src_maps[0];
                let foldable = if self.cfg.const_fold {
                    if self.overflow_ok(src.disp, inst.imm) {
                        true
                    } else {
                        self.stats.cancelled_overflow += 1;
                        false
                    }
                } else {
                    // Pure move elimination: immediate must be zero (and with
                    // CF off, no displacement can exist to begin with).
                    cls.is_move() && src.disp == 0
                };
                if foldable {
                    if depends_on_group_elim {
                        self.stats.cancelled_group_dep += 1;
                    } else {
                        let class = if cls.is_move() {
                            ElimClass::Move
                        } else {
                            ElimClass::ConstFold
                        };
                        kind = RenamedKind::Eliminated(class);
                        shared = Some(Mapping {
                            preg: src.preg,
                            disp: src.disp + inst.imm as i32,
                        });
                    }
                }
            }

            // RENO_CSE+RA: the integration test.
            if kind == RenamedKind::Issued && allow_integration && self.integration_applies(cls) {
                if let Some(key) = self.it_key(&inst, src_maps) {
                    if let Some(out) = self.it.lookup(&key, &self.freelist) {
                        if depends_on_group_elim {
                            self.stats.cancelled_group_dep += 1;
                        } else {
                            let class = if inst.op.is_load() {
                                ElimClass::LoadCse
                            } else {
                                ElimClass::AluCse
                            };
                            kind = RenamedKind::Eliminated(class);
                            shared = Some(out);
                        }
                    }
                }
            }
        }

        // --- Commit the decision -------------------------------------------------
        let mut dst = None;
        match (kind, dst_l) {
            (RenamedKind::Eliminated(class), Some(dl)) => {
                let new = shared.expect("eliminated instructions share a mapping");
                self.freelist.incref(new.preg);
                let old = self.map.set(dl, new);
                dst = Some(DstInfo { lreg: dl, new, old });
                self.group_elim_dests |= 1 << dl.index();
                match class {
                    ElimClass::Move => self.stats.moves += 1,
                    ElimClass::ConstFold => self.stats.const_folds += 1,
                    ElimClass::LoadCse => self.stats.load_cse += 1,
                    ElimClass::AluCse => self.stats.alu_cse += 1,
                }
            }
            (RenamedKind::Issued, Some(dl)) => {
                let p = self.freelist.alloc()?;
                self.stats.preg_allocs += 1;
                let new = Mapping::direct(p);
                let old = self.map.set(dl, new);
                dst = Some(DstInfo { lreg: dl, new, old });
            }
            (RenamedKind::Issued, None) => {}
            (RenamedKind::Eliminated(_), None) => unreachable!("elimination requires a dst"),
        }

        // --- Create IT tuples for issued instructions ---------------------------
        if kind == RenamedKind::Issued && self.cfg.integration != IntegrationMode::Off {
            if cls.is_store() {
                // Reverse entry: the anticipated reload of this store's value.
                let base = src_maps[0];
                let data = src_maps[1];
                let key = ItKey {
                    op: Self::reverse_load_op(inst.op),
                    imm: inst.imm,
                    in1: ItOperand::of(base, &self.freelist),
                    in2: None,
                };
                self.it.insert(key, data, &self.freelist);
            } else if self.integration_applies(cls) {
                if let (Some(d), Some(key)) = (dst, self.it_key(&inst, src_maps)) {
                    self.it.insert(key, d.new, &self.freelist);
                    // Reverse entries for register-immediate additions let
                    // stack-pointer decrement/increment pairs collapse
                    // (only relevant in Full mode; with CF on, CF gets them).
                    if cls.is_reg_imm_add() && inst.imm != i16::MIN {
                        let rkey = ItKey {
                            op: inst.op,
                            imm: -inst.imm,
                            in1: ItOperand::of(d.new, &self.freelist),
                            in2: None,
                        };
                        self.it.insert(rkey, src_maps[0], &self.freelist);
                    }
                }
            }
        }

        self.stats.renamed += 1;
        self.stats.min_free_pregs = self.stats.min_free_pregs.min(self.freelist.free_count());

        let mut srcs = [None, None];
        for (i, m) in src_maps.iter().enumerate().take(2) {
            srcs[i] = Some(SrcOp {
                preg: m.preg,
                disp: m.disp,
            });
        }

        Ok(Renamed {
            pc,
            inst,
            kind,
            srcs,
            dst,
        })
    }

    /// Retires a renamed instruction in program order: the mapping it
    /// replaced loses its reference (freeing the register at count zero).
    pub fn retire(&mut self, r: &Renamed) {
        if let Some(d) = r.dst {
            self.freelist.decref(d.old.preg);
        }
    }

    /// Hot-path equivalent of [`Reno::retire`] for a pipeline that tracks
    /// the replaced mapping's register itself (`d.old.preg`) and does not
    /// want to touch the full [`Renamed`] record at retirement.
    pub fn retire_old(&mut self, old: PhysReg) {
        self.freelist.decref(old);
    }

    /// Reverses the statistics contribution of a rename that was immediately
    /// rolled back (the pipeline renamed an instruction and then discovered a
    /// structural hazard — issue queue or load/store queue full — so the same
    /// instruction will be renamed again next cycle).
    pub fn undo_rename_stats(&mut self, r: &Renamed) {
        self.stats.renamed -= 1;
        match r.kind {
            RenamedKind::Issued => {
                if r.dst.is_some() {
                    self.stats.preg_allocs -= 1;
                }
            }
            RenamedKind::Eliminated(ElimClass::Move) => self.stats.moves -= 1,
            RenamedKind::Eliminated(ElimClass::ConstFold) => self.stats.const_folds -= 1,
            RenamedKind::Eliminated(ElimClass::LoadCse) => self.stats.load_cse -= 1,
            RenamedKind::Eliminated(ElimClass::AluCse) => self.stats.alu_cse -= 1,
        }
    }

    /// Rolls back a squashed instruction. **Must be called youngest-first**
    /// (reverse rename order): restores the previous mapping and releases
    /// this instruction's reference.
    pub fn rollback(&mut self, r: &Renamed) {
        self.rollback_dst(r.dst.as_ref());
    }

    /// Hot-path equivalent of [`Reno::rollback`] for a pipeline that keeps
    /// only the destination bookkeeping of each in-flight instruction (the
    /// rest of the [`Renamed`] record is dead weight after dispatch). Same
    /// youngest-first contract.
    pub fn rollback_dst(&mut self, dst: Option<&DstInfo>) {
        if let Some(d) = dst {
            debug_assert_eq!(
                self.map.get(d.lreg),
                d.new,
                "rollback must proceed youngest-first"
            );
            self.map.set(d.lreg, d.old);
            self.freelist.decref(d.new.preg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhysReg;

    fn addi(rd: Reg, rs: Reg, imm: i16) -> Inst {
        Inst::alu_ri(Opcode::Addi, rd, rs, imm)
    }
    fn add(rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        Inst::alu_rr(Opcode::Add, rd, rs1, rs2)
    }
    fn ld(rd: Reg, base: Reg, disp: i16) -> Inst {
        Inst::load(Opcode::Ld, rd, base, disp)
    }
    fn st(src: Reg, base: Reg, disp: i16) -> Inst {
        Inst::store(Opcode::St, src, base, disp)
    }

    /// Paper Figure 1: dynamic move elimination. The move's consumers
    /// short-circuit to the add's physical register.
    #[test]
    fn fig1_move_elimination() {
        let mut reno = Reno::new(RenoConfig::me_only());
        reno.begin_group();
        let r_add = reno.rename(0, add(Reg::T2, Reg::T0, Reg::T1)).unwrap();
        assert_eq!(r_add.kind, RenamedKind::Issued);
        let p3 = r_add.dst.unwrap().new.preg;

        reno.begin_group();
        let r_mov = reno.rename(1, addi(Reg::T1, Reg::T2, 0)).unwrap();
        assert_eq!(r_mov.kind, RenamedKind::Eliminated(ElimClass::Move));
        assert_eq!(
            r_mov.dst.unwrap().new,
            Mapping::direct(p3),
            "r2 -> p3, shared"
        );

        reno.begin_group();
        let r_ld = reno.rename(2, ld(Reg::T3, Reg::T1, 8)).unwrap();
        assert_eq!(
            r_ld.srcs[0].unwrap().preg,
            p3,
            "load short-circuits to the add"
        );
        assert_eq!(r_ld.srcs[0].unwrap().disp, 0);
    }

    /// Paper Figure 2: dynamic constant folding. `addi r3, 4, r2` collapses
    /// to the mapping `r2 -> [p3 : 4]`; the dependent load fuses the 4.
    #[test]
    fn fig2_constant_folding() {
        let mut reno = Reno::new(RenoConfig::cf_me());
        reno.begin_group();
        let r_add = reno.rename(0, add(Reg::T2, Reg::T0, Reg::T1)).unwrap();
        let p3 = r_add.dst.unwrap().new.preg;

        reno.begin_group();
        let r_addi = reno.rename(1, addi(Reg::T1, Reg::T2, 4)).unwrap();
        assert_eq!(r_addi.kind, RenamedKind::Eliminated(ElimClass::ConstFold));
        assert_eq!(r_addi.dst.unwrap().new, Mapping { preg: p3, disp: 4 });

        reno.begin_group();
        let r_ld = reno.rename(2, ld(Reg::T3, Reg::T1, 8)).unwrap();
        assert_eq!(r_ld.kind, RenamedKind::Issued);
        let src = r_ld.srcs[0].unwrap();
        assert_eq!((src.preg, src.disp), (p3, 4), "address = (p3 + 4) + 8");
    }

    /// Paper Figure 3 (top): common-subexpression elimination. The second
    /// identical load integrates; overwriting the base register kills reuse.
    #[test]
    fn fig3_cse_redundant_loads() {
        let mut reno = Reno::new(RenoConfig::reno());
        reno.begin_group();
        let l1 = reno.rename(0, ld(Reg::T2, Reg::T0, 8)).unwrap();
        assert_eq!(l1.kind, RenamedKind::Issued);
        let p3 = l1.dst.unwrap().new.preg;

        reno.begin_group();
        let l2 = reno.rename(1, ld(Reg::T3, Reg::T0, 8)).unwrap();
        assert_eq!(l2.kind, RenamedKind::Eliminated(ElimClass::LoadCse));
        assert_eq!(l2.dst.unwrap().new.preg, p3, "loads share p3");
        assert!(l2.needs_load_reexec());

        // add r3, r3, r1 overwrites r1 (the base): third load not redundant.
        reno.begin_group();
        let _ = reno.rename(2, add(Reg::T0, Reg::T2, Reg::T2)).unwrap();
        reno.begin_group();
        let l3 = reno.rename(3, ld(Reg::T2, Reg::T0, 8)).unwrap();
        assert_eq!(l3.kind, RenamedKind::Issued, "base changed: no reuse");
    }

    /// Paper Figure 3 (bottom): speculative memory bypassing across a stack
    /// frame push/pop. In the default RENO config the sp adjustments fold
    /// via RENO_CF, so the reload's signature matches the store's reverse
    /// entry exactly.
    #[test]
    fn fig3_speculative_memory_bypassing() {
        let mut reno = Reno::new(RenoConfig::reno());
        let p_data = {
            reno.begin_group();
            let r = reno.rename(0, add(Reg::T1, Reg::T0, Reg::T0)).unwrap();
            r.dst.unwrap().new.preg
        };
        reno.begin_group();
        let _st = reno.rename(1, st(Reg::T1, Reg::SP, 8)).unwrap(); // store r2, 8(sp)
        reno.begin_group();
        let dec = reno.rename(2, addi(Reg::SP, Reg::SP, -16)).unwrap(); // push frame
        assert!(dec.is_eliminated());
        reno.begin_group();
        let inc = reno.rename(3, addi(Reg::SP, Reg::SP, 16)).unwrap(); // pop frame
        assert!(inc.is_eliminated());
        assert_eq!(inc.dst.unwrap().new.disp, 0, "sp folds back to disp 0");
        reno.begin_group();
        let reload = reno.rename(4, ld(Reg::T1, Reg::SP, 8)).unwrap();
        assert_eq!(reload.kind, RenamedKind::Eliminated(ElimClass::LoadCse));
        assert_eq!(reload.dst.unwrap().new.preg, p_data, "load bypasses memory");
    }

    /// Paper Figure 4: chains of dependent addis fold into a single mapping
    /// when renamed in different cycles.
    #[test]
    fn fig4_addi_chain_folds_across_groups() {
        let mut reno = Reno::new(RenoConfig::cf_me());
        reno.begin_group();
        let a = reno.rename(0, addi(Reg::T1, Reg::T0, 5)).unwrap();
        assert!(a.is_eliminated());
        reno.begin_group();
        let b = reno.rename(1, addi(Reg::T3, Reg::T1, 6)).unwrap();
        assert!(b.is_eliminated());
        let m = b.dst.unwrap().new;
        assert_eq!(m.disp, 11, "r4 -> [p1 : 11]");
        assert_eq!(m.preg, PhysReg(Reg::T0.index() as u16));
    }

    /// §3.2: two *dependent* eliminations cannot happen in one rename group;
    /// the younger is processed as a normal instruction.
    #[test]
    fn dependent_eliminations_split_across_cycles() {
        let mut reno = Reno::new(RenoConfig::cf_me());
        reno.begin_group();
        let a = reno.rename(0, addi(Reg::T1, Reg::T0, 5)).unwrap();
        let b = reno.rename(1, addi(Reg::T2, Reg::T1, 6)).unwrap();
        assert!(a.is_eliminated());
        assert_eq!(
            b.kind,
            RenamedKind::Issued,
            "same-group dependent addi issues"
        );
        // But its source operand still carries the folded displacement.
        assert_eq!(b.srcs[0].unwrap().disp, 5);
        assert_eq!(reno.stats().cancelled_group_dep, 1);

        // Independent eliminations in one group are fine.
        reno.begin_group();
        let c = reno.rename(2, addi(Reg::T3, Reg::T0, 1)).unwrap();
        let d = reno.rename(3, addi(Reg::T4, Reg::T0, 2)).unwrap();
        assert!(c.is_eliminated() && d.is_eliminated());
    }

    /// Paper Figure 5: CF and CSE compose — a load whose base mapping is
    /// displaced creates a displaced tuple, and the redundant load matches it.
    #[test]
    fn fig5_cse_with_cf_displaced_base() {
        let mut reno = Reno::new(RenoConfig::reno());
        reno.begin_group();
        let f = reno.rename(0, addi(Reg::T0, Reg::T0, 4)).unwrap();
        assert!(f.is_eliminated());
        reno.begin_group();
        let l1 = reno.rename(1, ld(Reg::T2, Reg::T0, 8)).unwrap();
        assert_eq!(l1.kind, RenamedKind::Issued);
        assert_eq!(l1.srcs[0].unwrap().disp, 4);
        reno.begin_group();
        let l2 = reno.rename(2, ld(Reg::T3, Reg::T0, 8)).unwrap();
        assert_eq!(l2.kind, RenamedKind::Eliminated(ElimClass::LoadCse));
        assert_eq!(l2.dst.unwrap().new.preg, l1.dst.unwrap().new.preg);
    }

    #[test]
    fn overflow_checks_cancel_folding() {
        // Conservative: operands beyond +/-2^14 cancel even if the sum fits.
        let mut reno = Reno::new(RenoConfig::cf_me());
        reno.begin_group();
        let a = reno.rename(0, addi(Reg::T1, Reg::T0, 20_000)).unwrap();
        assert_eq!(a.kind, RenamedKind::Issued, "conservative check cancels");
        assert_eq!(reno.stats().cancelled_overflow, 1);

        // Exact: the same folding succeeds, but a genuinely overflowing sum
        // still cancels.
        let mut reno = Reno::new(RenoConfig {
            conservative_overflow: false,
            ..RenoConfig::cf_me()
        });
        reno.begin_group();
        let a = reno.rename(0, addi(Reg::T1, Reg::T0, 20_000)).unwrap();
        assert!(a.is_eliminated());
        reno.begin_group();
        let b = reno.rename(1, addi(Reg::T1, Reg::T1, 20_000)).unwrap();
        assert_eq!(b.kind, RenamedKind::Issued, "20000+20000 overflows i16");
    }

    #[test]
    fn eliminated_instructions_consume_no_pregs() {
        let mut reno = Reno::new(RenoConfig::reno());
        let before = reno.free_pregs();
        reno.begin_group();
        reno.rename(0, addi(Reg::T1, Reg::T0, 4)).unwrap();
        assert_eq!(reno.free_pregs(), before, "folded addi allocates nothing");
        reno.rename(1, add(Reg::T2, Reg::T0, Reg::T0)).unwrap();
        assert_eq!(reno.free_pregs(), before - 1);
    }

    #[test]
    fn retire_frees_overwritten_register() {
        let mut reno = Reno::new(RenoConfig::baseline());
        reno.begin_group();
        let a = reno.rename(0, add(Reg::T1, Reg::T0, Reg::T0)).unwrap();
        let b = reno.rename(1, add(Reg::T1, Reg::T0, Reg::T0)).unwrap(); // overwrites T1
        let old_preg = b.dst.unwrap().old.preg;
        assert_eq!(old_preg, a.dst.unwrap().new.preg);
        let free_before = reno.free_pregs();
        reno.retire(&a);
        assert_eq!(
            reno.free_pregs(),
            free_before + 1,
            "a's retire frees the architectural register"
        );
        reno.retire(&b);
        assert!(
            reno.freelist().count(old_preg) == 0,
            "b's retire frees a's register"
        );
    }

    #[test]
    fn rollback_restores_mappings_and_counts() {
        let mut reno = Reno::new(RenoConfig::reno());
        let snap = reno.map_table().snapshot();
        let refs = reno.freelist().total_refs();
        reno.begin_group();
        let a = reno.rename(0, addi(Reg::T1, Reg::T0, 4)).unwrap();
        reno.begin_group();
        let b = reno.rename(1, ld(Reg::T2, Reg::T1, 0)).unwrap();
        reno.begin_group();
        let c = reno.rename(2, addi(Reg::T3, Reg::T2, 8)).unwrap();
        // Squash youngest-first.
        reno.rollback(&c);
        reno.rollback(&b);
        reno.rollback(&a);
        assert_eq!(reno.map_table().snapshot(), snap);
        assert_eq!(reno.freelist().total_refs(), refs);
    }

    #[test]
    fn move_from_zero_materializes_constant_for_free() {
        let mut reno = Reno::new(RenoConfig::reno());
        reno.begin_group();
        let li = reno.rename(0, addi(Reg::T0, Reg::ZERO, 42)).unwrap();
        assert!(li.is_eliminated(), "li folds onto the zero register");
        let m = li.dst.unwrap().new;
        assert_eq!(m.preg, PhysReg(Reg::ZERO.index() as u16));
        assert_eq!(m.disp, 42);
    }

    #[test]
    fn full_integration_reuses_alu_results() {
        let mut reno = Reno::new(RenoConfig::full_integration_only());
        reno.begin_group();
        let a = reno.rename(0, add(Reg::T2, Reg::T0, Reg::T1)).unwrap();
        assert_eq!(a.kind, RenamedKind::Issued);
        reno.begin_group();
        let b = reno.rename(1, add(Reg::T3, Reg::T0, Reg::T1)).unwrap();
        assert_eq!(b.kind, RenamedKind::Eliminated(ElimClass::AluCse));
        assert_eq!(b.dst.unwrap().new.preg, a.dst.unwrap().new.preg);
    }

    #[test]
    fn full_integration_sp_bootstrap_via_reverse_addi_entries() {
        // Without CF, the sp decrement/increment pair must collapse through
        // the reverse addi tuple for bypassing to cross the call.
        let mut reno = Reno::new(RenoConfig::full_integration_only());
        reno.begin_group();
        let dec = reno.rename(0, addi(Reg::SP, Reg::SP, -16)).unwrap();
        assert_eq!(dec.kind, RenamedKind::Issued);
        reno.begin_group();
        let inc = reno.rename(1, addi(Reg::SP, Reg::SP, 16)).unwrap();
        assert_eq!(inc.kind, RenamedKind::Eliminated(ElimClass::AluCse));
        assert_eq!(
            inc.dst.unwrap().new.preg,
            dec.dst.unwrap().old.preg,
            "sp restored to old name"
        );
    }

    #[test]
    fn loads_only_mode_ignores_alu() {
        let mut reno = Reno::new(RenoConfig::loads_integration_only());
        reno.begin_group();
        let a = reno.rename(0, add(Reg::T2, Reg::T0, Reg::T1)).unwrap();
        reno.begin_group();
        let b = reno.rename(1, add(Reg::T3, Reg::T0, Reg::T1)).unwrap();
        assert_eq!(a.kind, RenamedKind::Issued);
        assert_eq!(
            b.kind,
            RenamedKind::Issued,
            "ALU ops not integrated in loads-only mode"
        );
        assert_eq!(
            reno.it_stats().lookups,
            0,
            "no IT bandwidth spent on ALU ops"
        );
    }

    #[test]
    fn dependent_elimination_ablation_allows_same_group_chains() {
        let cfg = RenoConfig {
            allow_dependent_elim: true,
            ..RenoConfig::cf_me()
        };
        let mut reno = Reno::new(cfg);
        reno.begin_group();
        let a = reno.rename(0, addi(Reg::T1, Reg::T0, 5)).unwrap();
        let b = reno.rename(1, addi(Reg::T2, Reg::T1, 6)).unwrap();
        assert!(a.is_eliminated() && b.is_eliminated(), "E1 rule disabled");
        assert_eq!(b.dst.unwrap().new.disp, 11, "chain folds in one cycle");
        assert_eq!(reno.stats().cancelled_group_dep, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut reno = Reno::new(RenoConfig::reno());
        reno.begin_group();
        reno.rename(0, addi(Reg::T0, Reg::T0, 1)).unwrap();
        reno.begin_group();
        reno.rename(1, addi(Reg::T1, Reg::T2, 0)).unwrap();
        assert_eq!(reno.stats().renamed, 2);
        assert_eq!(reno.stats().const_folds, 1);
        assert_eq!(reno.stats().moves, 1);
        assert!((reno.stats().elimination_pct() - 100.0).abs() < 1e-9);
    }
}
