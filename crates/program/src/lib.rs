//! # vp-program
//!
//! The program model the Vacuum Packing algorithms operate on: functions
//! made of basic blocks with explicit terminators, a per-function
//! control-flow graph, a whole-program call graph, register liveness, and a
//! binary layout that assigns addresses exactly the way a post-link
//! rewriter would.
//!
//! The paper's pipeline consumes IMPACT-compiled binaries; this crate is the
//! equivalent substrate. Basic blocks follow the paper's Section 3.2.1
//! discipline: *"each block contains no more than one branch or subroutine
//! call, which is always the last instruction in the block"* — enforced here
//! by construction, because control flow lives in [`Terminator`] rather than
//! in the instruction list.
//!
//! ```
//! use vp_program::ProgramBuilder;
//! use vp_isa::Reg;
//!
//! let mut pb = ProgramBuilder::new();
//! let main = pb.declare("main");
//! pb.define(main, |f| {
//!     f.li(Reg::int(8), 3);
//!     f.halt();
//! });
//! let program = pb.build();
//! assert_eq!(program.funcs.len(), 1);
//! program.validate().unwrap();
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod builder;
pub mod callgraph;
pub mod cfg;
pub mod func;
pub mod layout;
pub mod liveness;
pub mod loops;
pub mod pretty;

pub use block::{Block, EdgeKind, Terminator};
pub use builder::{FunctionBuilder, ProgramBuilder};
pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use func::{FuncKind, Function};
pub use layout::{Layout, LayoutOrder, TermEncoding};
pub use liveness::Liveness;

use vp_isa::{BlockId, CodeRef, FuncId};

/// An initialized region of data memory.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSegment {
    /// Byte address of the first word (must be 8-byte aligned).
    pub base: u64,
    /// Initial 64-bit word values.
    pub words: Vec<u64>,
}

impl DataSegment {
    /// Byte address one past the end of the segment.
    pub fn end(&self) -> u64 {
        self.base + 8 * self.words.len() as u64
    }
}

/// A whole program: functions plus initialized data.
///
/// The same type represents both the original binary and the rewritten
/// binary that carries extracted packages; package functions are
/// distinguished by [`FuncKind`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// All functions; `FuncId` indexes into this vector.
    pub funcs: Vec<Function>,
    /// The function where execution starts.
    pub entry: FuncId,
    /// Initialized data segments.
    pub data: Vec<DataSegment>,
}

/// Error produced by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The program has no functions.
    Empty,
    /// The entry function id is out of range.
    BadEntry(FuncId),
    /// A function's entry block id is out of range.
    BadFuncEntry(FuncId, BlockId),
    /// A terminator references a nonexistent function.
    BadFuncRef {
        /// Location of the offending terminator.
        from: CodeRef,
        /// The nonexistent function.
        to: FuncId,
    },
    /// A terminator references a nonexistent block.
    BadBlockRef {
        /// Location of the offending terminator.
        from: CodeRef,
        /// The nonexistent target.
        to: CodeRef,
    },
    /// An original (non-package) function branches into another original
    /// function.
    CrossFuncBranch {
        /// Location of the offending terminator.
        from: CodeRef,
        /// The cross-function target.
        to: CodeRef,
    },
    /// A data segment has a misaligned base address.
    MisalignedData(u64),
    /// Two data segments overlap.
    OverlappingData(u64, u64),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::Empty => write!(f, "program has no functions"),
            ValidateError::BadEntry(id) => write!(f, "entry function {id} out of range"),
            ValidateError::BadFuncEntry(func, b) => {
                write!(f, "function {func} entry block {b} out of range")
            }
            ValidateError::BadFuncRef { from, to } => {
                write!(f, "terminator at {from} calls nonexistent function {to}")
            }
            ValidateError::BadBlockRef { from, to } => {
                write!(f, "terminator at {from} targets nonexistent block {to}")
            }
            ValidateError::CrossFuncBranch { from, to } => {
                write!(
                    f,
                    "original function branches across functions: {from} -> {to}"
                )
            }
            ValidateError::MisalignedData(a) => write!(f, "data segment base {a:#x} misaligned"),
            ValidateError::OverlappingData(a, b) => {
                write!(f, "data segments at {a:#x} and {b:#x} overlap")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl Program {
    /// Looks up a function by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Mutable function lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.0 as usize]
    }

    /// Looks up a block by global code reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    pub fn block(&self, r: CodeRef) -> &Block {
        self.func(r.func).block(r.block)
    }

    /// Appends a function, returning its id.
    pub fn push_func(&mut self, mut f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        f.id = id;
        self.funcs.push(f);
        id
    }

    /// Total number of static instructions, counting each terminator at its
    /// address-independent cost of one control instruction (the layout may
    /// later encode a `Goto` in zero instructions or a two-target branch in
    /// two).
    pub fn static_insts(&self) -> u64 {
        self.funcs.iter().map(|f| f.static_insts()).sum()
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant; see [`ValidateError`].
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.funcs.is_empty() {
            return Err(ValidateError::Empty);
        }
        if self.entry.0 as usize >= self.funcs.len() {
            return Err(ValidateError::BadEntry(self.entry));
        }
        for f in &self.funcs {
            if f.entry.0 as usize >= f.blocks.len() {
                return Err(ValidateError::BadFuncEntry(f.id, f.entry));
            }
            for (bid, block) in f.blocks_iter() {
                let from = CodeRef {
                    func: f.id,
                    block: bid,
                };
                for target in block.term.code_targets() {
                    let Some(tf) = self.funcs.get(target.func.0 as usize) else {
                        return Err(ValidateError::BadFuncRef {
                            from,
                            to: target.func,
                        });
                    };
                    if target.block.0 as usize >= tf.blocks.len() {
                        return Err(ValidateError::BadBlockRef { from, to: target });
                    }
                    // Original code may branch into package functions
                    // (patched launch points) but never into other
                    // original functions; packages may branch anywhere
                    // (exits back to original code, inter-package links).
                    if target.func != f.id
                        && f.kind == FuncKind::Original
                        && tf.kind == FuncKind::Original
                    {
                        return Err(ValidateError::CrossFuncBranch { from, to: target });
                    }
                }
                match block.term {
                    Terminator::Call { callee, ret_to } => {
                        if callee.0 as usize >= self.funcs.len() {
                            return Err(ValidateError::BadFuncRef { from, to: callee });
                        }
                        if ret_to.0 as usize >= f.blocks.len() {
                            return Err(ValidateError::BadBlockRef {
                                from,
                                to: CodeRef {
                                    func: f.id,
                                    block: ret_to,
                                },
                            });
                        }
                    }
                    Terminator::CallThrough { target, ret_to } => {
                        if f.kind == FuncKind::Original {
                            return Err(ValidateError::CrossFuncBranch { from, to: target });
                        }
                        if ret_to.0 as usize >= f.blocks.len() {
                            return Err(ValidateError::BadBlockRef {
                                from,
                                to: CodeRef {
                                    func: f.id,
                                    block: ret_to,
                                },
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut segs: Vec<(u64, u64)> = self.data.iter().map(|s| (s.base, s.end())).collect();
        segs.sort_unstable();
        for (i, &(base, end)) in segs.iter().enumerate() {
            if base % 8 != 0 {
                return Err(ValidateError::MisalignedData(base));
            }
            if i + 1 < segs.len() && end > segs[i + 1].0 {
                return Err(ValidateError::OverlappingData(base, segs[i + 1].0));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Terminator;
    use crate::func::{FuncKind, Function};

    fn leaf_func(name: &str) -> Function {
        let mut f = Function::new(name);
        f.push_block(Block {
            insts: vec![],
            term: Terminator::Halt,
        });
        f
    }

    #[test]
    fn empty_program_invalid() {
        assert_eq!(Program::default().validate(), Err(ValidateError::Empty));
    }

    #[test]
    fn minimal_program_valid() {
        let mut p = Program::default();
        p.push_func(leaf_func("main"));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn bad_entry_detected() {
        let mut p = Program::default();
        p.push_func(leaf_func("main"));
        p.entry = FuncId(5);
        assert_eq!(p.validate(), Err(ValidateError::BadEntry(FuncId(5))));
    }

    #[test]
    fn cross_function_branch_rejected_for_original_code() {
        let mut p = Program::default();
        let mut f = Function::new("a");
        f.push_block(Block {
            insts: vec![],
            term: Terminator::Goto(CodeRef::new(1, 0)),
        });
        p.push_func(f);
        p.push_func(leaf_func("b"));
        assert!(matches!(
            p.validate(),
            Err(ValidateError::CrossFuncBranch { .. })
        ));
    }

    #[test]
    fn cross_function_branch_allowed_for_packages() {
        let mut p = Program::default();
        let mut f = Function::new("pkg");
        f.kind = FuncKind::Package { phase: 0 };
        f.push_block(Block {
            insts: vec![],
            term: Terminator::Goto(CodeRef::new(1, 0)),
        });
        p.push_func(f);
        p.push_func(leaf_func("b"));
        p.entry = FuncId(1);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn overlapping_data_rejected() {
        let mut p = Program::default();
        p.push_func(leaf_func("main"));
        p.data.push(DataSegment {
            base: 0x1000,
            words: vec![0; 4],
        });
        p.data.push(DataSegment {
            base: 0x1010,
            words: vec![0; 4],
        });
        assert!(matches!(
            p.validate(),
            Err(ValidateError::OverlappingData(..))
        ));
    }
}
