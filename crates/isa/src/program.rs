use crate::Inst;

/// Base byte address of the static data segment laid out by the assembler.
pub const DATA_BASE: u64 = 0x0010_0000;

/// Base byte address of the heap (workloads that need dynamic-looking storage
/// carve it from here).
pub const HEAP_BASE: u64 = 0x0100_0000;

/// Initial stack pointer. The stack grows down.
pub const STACK_TOP: u64 = 0x0800_0000;

/// Byte address of the first instruction, used for instruction-cache indexing
/// (each instruction occupies 4 bytes).
pub const TEXT_BASE: u64 = 0x0000_1000;

/// An initialized data segment of a [`Program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataSeg {
    /// Starting byte address.
    pub addr: u64,
    /// Initial contents.
    pub bytes: Vec<u8>,
}

/// An assembled program: instructions plus initialized data.
///
/// Control flow operates in *instruction-index* space (a branch to instruction
/// 7 sets `pc = 7`); the byte address of instruction `i`, used only for
/// instruction-cache modelling, is `TEXT_BASE + 4 * i`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// Human-readable program name (used in reports).
    pub name: String,
    /// The instruction stream, indexed by `pc`.
    pub insts: Vec<Inst>,
    /// Entry point (instruction index).
    pub entry: usize,
    /// Initialized data segments.
    pub data: Vec<DataSeg>,
}

impl Program {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            ..Program::default()
        }
    }

    /// Byte address of instruction `pc` (for I-cache indexing).
    #[inline]
    pub fn inst_addr(pc: usize) -> u64 {
        TEXT_BASE + 4 * pc as u64
    }

    /// Fetches the instruction at `pc`, if in range.
    #[inline]
    pub fn fetch(&self, pc: usize) -> Option<&Inst> {
        self.insts.get(pc)
    }

    /// Total size of initialized data, in bytes.
    pub fn data_len(&self) -> usize {
        self.data.iter().map(|d| d.bytes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Opcode, Reg};

    #[test]
    fn inst_addr_is_4_byte_stride() {
        assert_eq!(Program::inst_addr(0), TEXT_BASE);
        assert_eq!(Program::inst_addr(3), TEXT_BASE + 12);
    }

    #[test]
    fn fetch_bounds() {
        let mut p = Program::new("t");
        p.insts
            .push(Inst::alu_ri(Opcode::Addi, Reg::T0, Reg::ZERO, 1));
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(1).is_none());
    }

    #[test]
    fn address_space_layout_is_disjoint() {
        const _: () = assert!(TEXT_BASE < DATA_BASE);
        const _: () = assert!(DATA_BASE < HEAP_BASE);
        const _: () = assert!(HEAP_BASE < STACK_TOP);
    }
}
