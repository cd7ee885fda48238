use crate::memory::PAGE_BYTES;
use crate::{Cpu, Memory, MixStats};
use reno_isa::{Program, Reg};
use std::fmt;

const MAGIC: &[u8; 8] = b"RENOCKPT";
const VERSION: u32 = 1;

/// Error raised when deserializing a [`Checkpoint`] from bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream does not start with the checkpoint magic.
    BadMagic,
    /// The format version is not supported.
    BadVersion(u32),
    /// The byte stream ended early or carries trailing garbage.
    Truncated,
    /// A field holds a value [`Checkpoint::to_bytes`] can never produce
    /// (non-canonical halt flag, unsorted or duplicate delta pages).
    BadField(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a reno checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint bytes truncated or oversized"),
            CheckpointError::BadField(which) => {
                write!(f, "checkpoint field `{which}` holds a non-canonical value")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A serialized architectural snapshot of a [`Cpu`] at a dynamic-instruction
/// boundary.
///
/// The snapshot holds the full register file, pc, halt flag, output
/// checksum, executed count, instruction-mix counters, and the memory image
/// as a *delta* against the program's initial data segments (only pages
/// whose contents changed are stored, sorted by page number). Restoring
/// against the same program resumes execution bit-identically: every later
/// [`Cpu::step`] produces the same `DynInst` records, digests and checksums
/// as the uninterrupted machine. All state is architectural — there is no
/// RNG or host-dependent component — so [`Checkpoint::to_bytes`] is a
/// deterministic function of the execution prefix.
///
/// ```
/// use reno_func::{Checkpoint, Cpu};
/// use reno_isa::{Asm, Reg};
///
/// let mut a = Asm::new();
/// a.li(Reg::T0, 3);
/// a.label("loop");
/// a.addi(Reg::T0, Reg::T0, -1);
/// a.bnez(Reg::T0, "loop");
/// a.out(Reg::T0);
/// a.halt();
/// let prog = a.assemble()?;
///
/// let mut cpu = Cpu::new(&prog);
/// for _ in 0..4 {
///     cpu.step(&prog)?;
/// }
/// let bytes = Checkpoint::take(&cpu, &prog).to_bytes();
/// let mut resumed = Checkpoint::from_bytes(&bytes)?.restore(&prog);
/// resumed.run_program(&prog, 1 << 20)?;
/// cpu.run_program(&prog, 1 << 20)?;
/// assert_eq!(resumed.state_digest(), cpu.state_digest());
/// assert_eq!(resumed.executed(), cpu.executed());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    regs: [i64; Reg::COUNT],
    pc: u64,
    halted: bool,
    checksum: u64,
    executed: u64,
    mix: MixStats,
    /// Sorted `(page_number, page_bytes)` delta vs. the initial image.
    pages: Vec<(u64, Vec<u8>)>,
}

impl Checkpoint {
    /// Snapshots `cpu`, storing memory as a delta against `program`'s
    /// initial image (the state [`Cpu::new`] would start from).
    pub fn take(cpu: &Cpu, program: &Program) -> Checkpoint {
        Checkpoint::take_with_base(cpu, Cpu::new(program).mem())
    }

    /// Like [`Checkpoint::take`], but deltas against a caller-held copy of
    /// the program's initial memory image (`Cpu::new(program).mem()`), so a
    /// sampling engine taking many checkpoints builds that image once.
    pub fn take_with_base(cpu: &Cpu, base: &Memory) -> Checkpoint {
        Checkpoint::with_pages(cpu, cpu.mem().delta_from(base))
    }

    /// Like [`Checkpoint::take`], but with the set of possibly-dirty page
    /// numbers supplied by the caller (e.g. collected from the observed
    /// store stream), skipping the full-image delta scan. `pages` must be
    /// sorted, deduplicated, and include **every** page the machine has
    /// written since the initial image — pages whose content happens to
    /// still match the base are stored harmlessly; a *missing* dirty page
    /// would make the restored machine diverge.
    pub fn take_with_dirty_pages(cpu: &Cpu, pages: &[u64]) -> Checkpoint {
        debug_assert!(pages.windows(2).all(|w| w[0] < w[1]), "sorted + unique");
        let snap = pages
            .iter()
            .map(|&pno| (pno, cpu.mem().page_contents(pno)))
            .collect();
        Checkpoint::with_pages(cpu, snap)
    }

    fn with_pages(cpu: &Cpu, pages: Vec<(u64, Vec<u8>)>) -> Checkpoint {
        Checkpoint {
            regs: cpu.regs,
            pc: cpu.pc as u64,
            halted: cpu.halted,
            checksum: cpu.checksum,
            executed: cpu.executed,
            mix: cpu.mix.clone(),
            pages,
        }
    }

    /// Reconstructs the machine against the same `program` the checkpoint
    /// was taken from. Resumes bit-identically (see the type docs).
    pub fn restore(&self, program: &Program) -> Cpu {
        self.restore_onto(Cpu::new(program).mem().clone())
    }

    /// Like [`Checkpoint::restore`], but starting from a caller-held copy
    /// of the program's initial memory image instead of rebuilding it —
    /// the cheap path when restoring many checkpoints of one program. The
    /// restored machine shares every page the delta does not replace with
    /// `base` (see [`Memory`]'s copy-on-write pages).
    pub fn restore_with_base(&self, base: &Memory) -> Cpu {
        self.restore_onto(base.clone())
    }

    fn restore_onto(&self, mut mem: Memory) -> Cpu {
        for (pno, bytes) in &self.pages {
            mem.apply_page(*pno, bytes);
        }
        Cpu {
            regs: self.regs,
            pc: self.pc as usize,
            halted: self.halted,
            checksum: self.checksum,
            executed: self.executed,
            mem,
            mix: self.mix.clone(),
        }
    }

    /// Dynamic instructions executed up to the snapshot boundary.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of delta pages the snapshot carries.
    pub fn delta_pages(&self) -> usize {
        self.pages.len()
    }

    /// Serializes to a self-describing little-endian byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mix = mix_words(&self.mix);
        let mut out = Vec::with_capacity(
            MAGIC.len()
                + 4
                + 8 * Reg::COUNT
                + 8 * 4
                + 8 * mix.len()
                + 4
                + self.pages.len() * (8 + PAGE_BYTES),
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        for r in self.regs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&self.pc.to_le_bytes());
        out.extend_from_slice(&u64::from(self.halted).to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out.extend_from_slice(&self.executed.to_le_bytes());
        for w in mix {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        for (pno, bytes) in &self.pages {
            out.extend_from_slice(&pno.to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Deserializes a checkpoint previously produced by
    /// [`Checkpoint::to_bytes`].
    ///
    /// The parser is strict: it accepts exactly the image of `to_bytes`, so
    /// `to_bytes(from_bytes(x)) == x` for every accepted `x` (the fuzz
    /// harness in `reno-fuzz` holds it to that). In particular the declared
    /// page count is validated against the actual remaining length *before*
    /// any allocation — a length-field lie cannot trigger a huge reserve —
    /// and non-canonical encodings (a halt flag other than 0/1, delta pages
    /// out of order or duplicated) are rejected, never silently normalized.
    ///
    /// # Errors
    ///
    /// See [`CheckpointError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let mut regs = [0i64; Reg::COUNT];
        for reg in &mut regs {
            *reg = r.u64()? as i64;
        }
        let pc = r.u64()?;
        let halted = match r.u64()? {
            0 => false,
            1 => true,
            _ => return Err(CheckpointError::BadField("halted")),
        };
        let checksum = r.u64()?;
        let executed = r.u64()?;
        let mut mix_w = [0u64; MIX_WORDS];
        for w in &mut mix_w {
            *w = r.u64()?;
        }
        let npages = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")) as usize;
        // The whole remainder must be exactly `npages` fixed-size records:
        // checked up front so the declared count never drives an allocation
        // the bytes can't back, and trailing garbage is caught here too.
        let record = 8 + PAGE_BYTES;
        if bytes.len() - r.pos != npages.saturating_mul(record) {
            return Err(CheckpointError::Truncated);
        }
        let mut pages = Vec::with_capacity(npages);
        let mut prev_pno = None;
        for _ in 0..npages {
            let pno = r.u64()?;
            if prev_pno.is_some_and(|p| p >= pno) {
                return Err(CheckpointError::BadField("pages"));
            }
            prev_pno = Some(pno);
            pages.push((pno, r.take(PAGE_BYTES)?.to_vec()));
        }
        debug_assert_eq!(r.pos, bytes.len(), "length pre-validated");
        Ok(Checkpoint {
            regs,
            pc,
            halted,
            checksum,
            executed,
            mix: mix_from_words(&mix_w),
            pages,
        })
    }

    /// Reads the `executed` counter out of a serialized checkpoint without
    /// parsing (or allocating for) the whole image — a cheap plausibility
    /// probe for callers that index many serialized checkpoints by position
    /// (e.g. a checkpoint store validating that an entry belongs where its
    /// key says it does). Only the magic, version and header length are
    /// checked here; full validation still happens at
    /// [`Checkpoint::from_bytes`] time.
    pub fn peek_executed(bytes: &[u8]) -> Option<u64> {
        let off = MAGIC.len() + 4 + 8 * Reg::COUNT + 8 + 8 + 8;
        if bytes.len() < off + 8 || &bytes[..MAGIC.len()] != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().ok()?);
        if version != VERSION {
            return None;
        }
        Some(u64::from_le_bytes(bytes[off..off + 8].try_into().ok()?))
    }
}

const MIX_WORDS: usize = 11;

fn mix_words(m: &MixStats) -> [u64; MIX_WORDS] {
    [
        m.total,
        m.moves,
        m.reg_imm_adds,
        m.other_alu_ri,
        m.alu_rr,
        m.muls,
        m.loads,
        m.stores,
        m.cond_branches,
        m.jumps,
        m.other,
    ]
}

fn mix_from_words(w: &[u64; MIX_WORDS]) -> MixStats {
    MixStats {
        total: w[0],
        moves: w[1],
        reg_imm_adds: w[2],
        other_alu_ri: w[3],
        alu_rr: w[4],
        muls: w[5],
        loads: w[6],
        stores: w[7],
        cond_branches: w[8],
        jumps: w[9],
        other: w[10],
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reno_isa::Asm;

    fn store_loop() -> Program {
        let mut a = Asm::new();
        let buf = a.zeros("buf", 64);
        a.li(Reg::S0, buf as i64);
        a.li(Reg::T0, 20);
        a.label("loop");
        a.st(Reg::T0, Reg::S0, 0);
        a.ld(Reg::T1, Reg::S0, 0);
        a.out(Reg::T1);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "loop");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let p = store_loop();
        let mut cpu = Cpu::new(&p);
        for _ in 0..23 {
            cpu.step(&p).unwrap();
        }
        let ck = Checkpoint::take(&cpu, &p);
        let again = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(ck, again);
        let restored = again.restore(&p);
        assert_eq!(restored.executed(), cpu.executed());
        assert_eq!(restored.pc(), cpu.pc());
        assert_eq!(restored.checksum(), cpu.checksum());
        assert_eq!(restored.state_digest(), cpu.state_digest());
        assert_eq!(restored.mix(), cpu.mix());
    }

    #[test]
    fn resume_is_step_for_step_identical() {
        let p = store_loop();
        let mut cpu = Cpu::new(&p);
        for _ in 0..9 {
            cpu.step(&p).unwrap();
        }
        let mut resumed = Checkpoint::take(&cpu, &p).restore(&p);
        loop {
            let a = cpu.step(&p).unwrap();
            let b = resumed.step(&p).unwrap();
            assert_eq!(a, b, "DynInst streams must match record-for-record");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cpu.state_digest(), resumed.state_digest());
    }

    #[test]
    fn zero_delta_at_entry() {
        let p = store_loop();
        let cpu = Cpu::new(&p);
        let ck = Checkpoint::take(&cpu, &p);
        assert_eq!(ck.delta_pages(), 0, "no page differs before execution");
        assert_eq!(ck.executed(), 0);
    }

    #[test]
    fn peek_executed_matches_full_parse() {
        let p = store_loop();
        let mut cpu = Cpu::new(&p);
        for _ in 0..17 {
            cpu.step(&p).unwrap();
        }
        let bytes = Checkpoint::take(&cpu, &p).to_bytes();
        assert_eq!(Checkpoint::peek_executed(&bytes), Some(17));
        assert_eq!(Checkpoint::peek_executed(b"short"), None);
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xff;
        assert_eq!(Checkpoint::peek_executed(&wrong), None);
    }

    #[test]
    fn bad_bytes_are_rejected() {
        assert_eq!(
            Checkpoint::from_bytes(b"not a checkpoint"),
            Err(CheckpointError::BadMagic)
        );
        let p = store_loop();
        let mut bytes = Checkpoint::take(&Cpu::new(&p), &p).to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Truncated)
        );
        let mut versioned = Checkpoint::take(&Cpu::new(&p), &p).to_bytes();
        versioned[8] = 9;
        assert!(matches!(
            Checkpoint::from_bytes(&versioned),
            Err(CheckpointError::BadVersion(9))
        ));
    }
}
