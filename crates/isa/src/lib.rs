//! # vp-isa
//!
//! Instruction-set definitions for the Vacuum Packing reproduction.
//!
//! The paper's system operates on IMPACT-compiled EPIC binaries. This crate
//! provides the equivalent substrate: a load/store, statically-scheduled
//! instruction set with the functional-unit classes of the paper's Table 2
//! machine (integer ALU, floating point, memory, and control).
//!
//! Control-flow transfers are *not* ordinary instructions here: basic blocks
//! in `vp-program` carry an explicit terminator, and the final encoding
//! cost of a terminator (zero, one, or two control instructions) is decided
//! at layout time, exactly like a real post-link rewriter deciding whether a
//! successor can be reached by fall-through.
//!
//! ```
//! use vp_isa::{Inst, Reg, Src, AluOp};
//!
//! let add = Inst::Alu { op: AluOp::Add, rd: Reg::int(5), rs1: Reg::int(6), rs2: Src::Imm(1) };
//! assert_eq!(add.defs(), vec![Reg::int(5)]);
//! assert_eq!(add.uses(), vec![Reg::int(6)]);
//! ```

#![warn(missing_docs)]

pub mod fp;
pub mod inst;
pub mod reg;

pub use fp::Fnv;
pub use inst::{AluOp, Cond, FaluOp, FuClass, Inst, Src};
pub use reg::Reg;

/// Size in bytes of one encoded instruction. Every instruction in this ISA
/// occupies a fixed slot, as in the EPIC encodings the paper targets.
pub const INST_BYTES: u64 = 4;

/// Identifier of a function within a `vp-program` program.
///
/// Function ids are dense indices assigned by the program builder; extracted
/// packages receive fresh ids appended after the original functions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Identifier of a basic block, local to its owning function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// A global code location: a basic block within a specific function.
///
/// Cross-function `CodeRef`s are what make post-link rewriting expressible:
/// launch points in original code jump into package functions, and package
/// exits jump back into the middle of original functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CodeRef {
    /// The function containing the referenced block.
    pub func: FuncId,
    /// The referenced block within `func`.
    pub block: BlockId,
}

impl CodeRef {
    /// Creates a code reference from raw indices.
    ///
    /// ```
    /// let r = vp_isa::CodeRef::new(2, 7);
    /// assert_eq!(r.func.0, 2);
    /// assert_eq!(r.block.0, 7);
    /// ```
    pub const fn new(func: u32, block: u32) -> Self {
        CodeRef {
            func: FuncId(func),
            block: BlockId(block),
        }
    }
}

impl std::fmt::Display for FuncId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl std::fmt::Display for CodeRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.func, self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_ref_display() {
        assert_eq!(CodeRef::new(3, 4).to_string(), "fn3:b4");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(FuncId(1) < FuncId(2));
        assert!(BlockId(0) < BlockId(9));
        assert!(CodeRef::new(0, 5) < CodeRef::new(1, 0));
    }
}
