//! Basic blocks and terminators.

use vp_isa::{BlockId, CodeRef, Cond, Fnv, FuncId, Inst, Reg, Src};

/// How a basic block ends.
///
/// Keeping control flow out of the instruction list enforces the paper's
/// block discipline and lets [`crate::Layout`] choose the cheapest encoding
/// (fall-through, single branch, inverted branch, or branch-plus-jump) after
/// relayout — the same freedom a binary rewriter has.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional transfer. Encoded as zero instructions when the target
    /// is laid out immediately after this block.
    Goto(CodeRef),
    /// Conditional branch comparing `rs1` against `rs2`.
    Br {
        /// Comparison performed.
        cond: Cond,
        /// Left comparison operand.
        rs1: Reg,
        /// Right comparison operand.
        rs2: Src,
        /// Successor when the condition holds (the *architectural* taken
        /// direction — profile records use this orientation regardless of
        /// how layout encodes the branch).
        taken: CodeRef,
        /// Successor when the condition does not hold.
        not_taken: CodeRef,
    },
    /// Subroutine call; execution continues at `ret_to` (in the same
    /// function) after the callee returns.
    Call {
        /// Called function.
        callee: FuncId,
        /// Continuation block in the calling function.
        ret_to: BlockId,
    },
    /// A call that enters at an arbitrary code location — the "push return
    /// address, then jump" idiom binary rewriters use. Package exit stubs
    /// use it to reconstruct the calling context that partial inlining
    /// elided: control leaves an inlined region into the middle of the
    /// original callee, and the callee's eventual `Ret` must find the
    /// continuation the inlined call site would have pushed. Only package
    /// functions may use it (enforced by [`crate::Program::validate`]).
    CallThrough {
        /// Code location control transfers to.
        target: CodeRef,
        /// Continuation block (in this function) pushed as the return
        /// address.
        ret_to: BlockId,
    },
    /// Return to the dynamic caller.
    Ret,
    /// Stop the program.
    Halt,
}

impl Terminator {
    /// All code targets this terminator can transfer to, excluding call and
    /// return targets (which are inter-procedural).
    pub fn code_targets(&self) -> Vec<CodeRef> {
        match self {
            Terminator::Goto(t) => vec![*t],
            Terminator::Br {
                taken, not_taken, ..
            } => vec![*taken, *not_taken],
            Terminator::CallThrough { target, .. } => vec![*target],
            Terminator::Call { .. } | Terminator::Ret | Terminator::Halt => vec![],
        }
    }

    /// Registers read when evaluating this terminator. Calls conservatively
    /// read the argument registers and the stack pointer; returns read the
    /// return-value register (software convention, documented in
    /// [`crate::liveness`]).
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Terminator::Goto(_) | Terminator::Halt => vec![],
            Terminator::Br { rs1, rs2, .. } => {
                let mut v = Vec::with_capacity(2);
                if !rs1.is_zero() {
                    v.push(*rs1);
                }
                if let Src::Reg(r) = rs2 {
                    if !r.is_zero() {
                        v.push(*r);
                    }
                }
                v
            }
            Terminator::Call { .. } | Terminator::CallThrough { .. } => {
                let mut v: Vec<Reg> = (0..8).map(Reg::arg).collect();
                v.push(Reg::SP);
                v
            }
            Terminator::Ret => vec![Reg::ARG0, Reg::SP],
        }
    }

    /// Registers conservatively treated as written by this terminator
    /// (calls clobber the return-value register).
    pub fn defs(&self) -> Vec<Reg> {
        match self {
            Terminator::Call { .. } | Terminator::CallThrough { .. } => vec![Reg::ARG0],
            _ => vec![],
        }
    }

    /// Whether this terminator is a conditional branch (the only kind the
    /// Branch Behavior Buffer profiles).
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Terminator::Br { .. })
    }

    /// Folds the kind and every operand and target into `h`, the control
    /// counterpart of [`Inst::fold_into`].
    pub fn fold_into(&self, h: &mut Fnv) {
        let at = |h: &mut Fnv, c: &CodeRef| {
            h.write_u32(c.func.0);
            h.write_u32(c.block.0);
        };
        match self {
            Terminator::Goto(t) => {
                h.write_u64(0);
                at(h, t);
            }
            Terminator::Br {
                cond,
                rs1,
                rs2,
                taken,
                not_taken,
            } => {
                h.write_u64(1);
                h.write_u64(*cond as u64);
                h.write_usize(rs1.index());
                rs2.fold_into(h);
                at(h, taken);
                at(h, not_taken);
            }
            Terminator::Call { callee, ret_to } => {
                h.write_u64(2);
                h.write_u32(callee.0);
                h.write_u32(ret_to.0);
            }
            Terminator::CallThrough { target, ret_to } => {
                h.write_u64(3);
                at(h, target);
                h.write_u32(ret_to.0);
            }
            Terminator::Ret => h.write_u64(4),
            Terminator::Halt => h.write_u64(5),
        }
    }
}

/// The kind of control-flow edge between two blocks of one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Taken direction of a conditional branch.
    Taken,
    /// Fall-through direction of a conditional branch.
    NotTaken,
    /// Unconditional transfer.
    Goto,
    /// Continuation after a call returns.
    CallCont,
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Non-control instructions, executed in order.
    pub insts: Vec<Inst>,
    /// The single control transfer ending the block.
    pub term: Terminator,
}

impl Block {
    /// A block holding only a terminator.
    pub fn empty(term: Terminator) -> Block {
        Block {
            insts: vec![],
            term,
        }
    }

    /// Intra-function successor edges (call continuations included,
    /// cross-function goto/branch targets excluded).
    pub fn successors(&self, here: FuncId) -> Vec<(BlockId, EdgeKind)> {
        match &self.term {
            Terminator::Goto(t) if t.func == here => vec![(t.block, EdgeKind::Goto)],
            Terminator::Goto(_) => vec![],
            Terminator::Br {
                taken, not_taken, ..
            } => {
                let mut v = Vec::with_capacity(2);
                if taken.func == here {
                    v.push((taken.block, EdgeKind::Taken));
                }
                if not_taken.func == here {
                    v.push((not_taken.block, EdgeKind::NotTaken));
                }
                v
            }
            Terminator::Call { ret_to, .. } | Terminator::CallThrough { ret_to, .. } => {
                vec![(*ret_to, EdgeKind::CallCont)]
            }
            Terminator::Ret | Terminator::Halt => vec![],
        }
    }

    /// Static instruction count with the terminator at unit cost.
    pub fn static_insts(&self) -> u64 {
        self.insts.len() as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn br_successors_both_directions() {
        let b = Block::empty(Terminator::Br {
            cond: Cond::Eq,
            rs1: Reg::int(3),
            rs2: Src::Imm(0),
            taken: CodeRef::new(0, 1),
            not_taken: CodeRef::new(0, 2),
        });
        let succ = b.successors(FuncId(0));
        assert_eq!(
            succ,
            vec![
                (BlockId(1), EdgeKind::Taken),
                (BlockId(2), EdgeKind::NotTaken)
            ]
        );
    }

    #[test]
    fn cross_function_goto_not_an_intra_edge() {
        let b = Block::empty(Terminator::Goto(CodeRef::new(7, 0)));
        assert!(b.successors(FuncId(0)).is_empty());
        assert_eq!(b.term.code_targets(), vec![CodeRef::new(7, 0)]);
    }

    #[test]
    fn call_successor_is_continuation() {
        let b = Block::empty(Terminator::Call {
            callee: FuncId(3),
            ret_to: BlockId(9),
        });
        assert_eq!(
            b.successors(FuncId(0)),
            vec![(BlockId(9), EdgeKind::CallCont)]
        );
    }

    #[test]
    fn branch_uses_skip_zero_register() {
        let t = Terminator::Br {
            cond: Cond::Ne,
            rs1: Reg::ZERO,
            rs2: Src::Reg(Reg::int(5)),
            taken: CodeRef::new(0, 1),
            not_taken: CodeRef::new(0, 2),
        };
        assert_eq!(t.uses(), vec![Reg::int(5)]);
    }

    #[test]
    fn ret_uses_return_value_register() {
        assert!(Terminator::Ret.uses().contains(&Reg::ARG0));
    }
}
