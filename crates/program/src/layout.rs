//! Binary layout: assigns code addresses and chooses terminator encodings.
//!
//! A post-link optimizer's relayout pass pays off through exactly the
//! mechanics modeled here: a `Goto` whose target is laid out next costs zero
//! instructions, a conditional branch whose hot successor falls through
//! avoids a fetch redirect, and a branch with neither successor adjacent
//! needs a branch *plus* a jump. Code-expansion numbers (paper Table 3) and
//! fetch behavior in `vp-sim` are both computed from an encoded layout.

use crate::block::Terminator;
use crate::Program;
use std::collections::HashMap;
use vp_isa::{BlockId, CodeRef, FuncId, INST_BYTES};

/// Default base address of the code image.
pub const CODE_BASE: u64 = 0x0001_0000;

/// The order in which functions and blocks are emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutOrder {
    /// Function emission order; must contain every function exactly once.
    pub funcs: Vec<FuncId>,
    /// Per-function block emission order, indexed by `FuncId`; each inner
    /// vector must contain every block of that function exactly once.
    pub blocks: Vec<Vec<BlockId>>,
}

impl LayoutOrder {
    /// The natural order: functions and blocks by ascending id.
    pub fn natural(p: &Program) -> LayoutOrder {
        LayoutOrder {
            funcs: (0..p.funcs.len() as u32).map(FuncId).collect(),
            blocks: p.funcs.iter().map(|f| f.block_ids().collect()).collect(),
        }
    }

    /// Replaces the block order of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the function's blocks
    /// (checked at [`Layout::new`] time).
    pub fn set_block_order(&mut self, f: FuncId, order: Vec<BlockId>) {
        self.blocks[f.0 as usize] = order;
    }
}

/// How a terminator is encoded at its layout position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermEncoding {
    /// `Goto` to the next block: encoded as nothing.
    Fallthrough,
    /// `Goto` elsewhere: one jump instruction.
    Jump,
    /// Conditional branch with the not-taken successor next: one branch.
    BrFall,
    /// Conditional branch with the taken successor next: one branch with the
    /// condition inverted, so the architectural taken direction falls
    /// through.
    BrInverted,
    /// Conditional branch with neither successor next: branch plus jump.
    BrJump,
    /// One call instruction.
    Call,
    /// One return instruction.
    Ret,
    /// One halt instruction.
    Halt,
}

impl TermEncoding {
    /// Number of instruction slots this encoding occupies.
    pub fn insts(self) -> u64 {
        match self {
            TermEncoding::Fallthrough => 0,
            TermEncoding::BrJump => 2,
            _ => 1,
        }
    }
}

/// An assigned layout: addresses, sizes and terminator encodings.
#[derive(Debug, Clone)]
pub struct Layout {
    base: u64,
    block_addr: Vec<Vec<u64>>,
    block_insts: Vec<Vec<u64>>,
    encoding: Vec<Vec<TermEncoding>>,
    branch_index: HashMap<u64, CodeRef>,
    func_range: Vec<(u64, u64)>,
    total_insts: u64,
    end: u64,
}

impl Layout {
    /// Lays out `p` in the given order starting at [`CODE_BASE`].
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a complete permutation of `p`'s functions
    /// and blocks.
    pub fn new(p: &Program, order: &LayoutOrder) -> Layout {
        assert_eq!(
            order.funcs.len(),
            p.funcs.len(),
            "layout must order every function"
        );
        let mut block_addr: Vec<Vec<u64>> =
            p.funcs.iter().map(|f| vec![0; f.blocks.len()]).collect();
        let mut block_insts: Vec<Vec<u64>> =
            p.funcs.iter().map(|f| vec![0; f.blocks.len()]).collect();
        let mut encoding: Vec<Vec<TermEncoding>> = p
            .funcs
            .iter()
            .map(|f| vec![TermEncoding::Halt; f.blocks.len()])
            .collect();
        let mut func_range = vec![(0u64, 0u64); p.funcs.len()];
        let mut branch_index = HashMap::new();

        let mut addr = CODE_BASE;
        let mut total_insts = 0u64;
        for &fid in &order.funcs {
            let f = p.func(fid);
            let blocks = &order.blocks[fid.0 as usize];
            assert_eq!(
                blocks.len(),
                f.blocks.len(),
                "layout must order every block of {fid}"
            );
            let mut seen = vec![false; f.blocks.len()];
            for &b in blocks {
                assert!(
                    !std::mem::replace(&mut seen[b.0 as usize], true),
                    "duplicate block {b}"
                );
            }
            let func_start = addr;
            for (pos, &b) in blocks.iter().enumerate() {
                let next = blocks.get(pos + 1).map(|&nb| CodeRef {
                    func: fid,
                    block: nb,
                });
                let block = f.block(b);
                let enc = encode(&block.term, next);
                let insts = block.insts.len() as u64 + enc.insts();
                block_addr[fid.0 as usize][b.0 as usize] = addr;
                block_insts[fid.0 as usize][b.0 as usize] = insts;
                encoding[fid.0 as usize][b.0 as usize] = enc;
                if block.term.is_cond_branch() {
                    // The branch is the first terminator slot.
                    let br = addr + block.insts.len() as u64 * INST_BYTES;
                    branch_index.insert(
                        br,
                        CodeRef {
                            func: fid,
                            block: b,
                        },
                    );
                }
                addr += insts * INST_BYTES;
                total_insts += insts;
            }
            func_range[fid.0 as usize] = (func_start, addr);
        }
        Layout {
            base: CODE_BASE,
            block_addr,
            block_insts,
            encoding,
            branch_index,
            func_range,
            total_insts,
            end: addr,
        }
    }

    /// Lays out `p` in natural order.
    pub fn natural(p: &Program) -> Layout {
        Layout::new(p, &LayoutOrder::natural(p))
    }

    /// First code address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the last code address.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Address of the first instruction of `b`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    pub fn addr_of(&self, b: CodeRef) -> u64 {
        self.block_addr[b.func.0 as usize][b.block.0 as usize]
    }

    /// Number of encoded instruction slots in `b` (straight-line
    /// instructions plus the terminator encoding).
    pub fn insts_of(&self, b: CodeRef) -> u64 {
        self.block_insts[b.func.0 as usize][b.block.0 as usize]
    }

    /// Encoding chosen for `b`'s terminator.
    pub fn encoding(&self, b: CodeRef) -> TermEncoding {
        self.encoding[b.func.0 as usize][b.block.0 as usize]
    }

    /// Address of the conditional-branch instruction ending `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not end in a conditional branch.
    pub fn branch_addr(&self, b: CodeRef) -> u64 {
        let base = self.addr_of(b);
        let block_insts = self.insts_of(b);
        let enc = self.encoding(b);
        assert!(
            matches!(
                enc,
                TermEncoding::BrFall | TermEncoding::BrInverted | TermEncoding::BrJump
            ),
            "{b} does not end in a conditional branch"
        );
        base + (block_insts - enc.insts()) * INST_BYTES
    }

    /// Maps a branch address back to its block — what the software side of
    /// the profiler does when it combines BBB records with the binary.
    pub fn branch_at(&self, addr: u64) -> Option<CodeRef> {
        self.branch_index.get(&addr).copied()
    }

    /// Address range `[start, end)` of a function's code.
    pub fn func_range(&self, f: FuncId) -> (u64, u64) {
        self.func_range[f.0 as usize]
    }

    /// Total encoded instruction slots in the image — the "static
    /// instructions" of the paper's Table 3.
    pub fn total_insts(&self) -> u64 {
        self.total_insts
    }

    /// Total code bytes.
    pub fn total_bytes(&self) -> u64 {
        self.end - self.base
    }
}

fn encode(term: &Terminator, next: Option<CodeRef>) -> TermEncoding {
    match term {
        Terminator::Goto(t) => {
            if Some(*t) == next {
                TermEncoding::Fallthrough
            } else {
                TermEncoding::Jump
            }
        }
        Terminator::Br {
            taken, not_taken, ..
        } => {
            if Some(*not_taken) == next {
                TermEncoding::BrFall
            } else if Some(*taken) == next {
                TermEncoding::BrInverted
            } else {
                TermEncoding::BrJump
            }
        }
        Terminator::Call { .. } | Terminator::CallThrough { .. } => TermEncoding::Call,
        Terminator::Ret => TermEncoding::Ret,
        Terminator::Halt => TermEncoding::Halt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, Terminator};
    use crate::func::Function;
    use vp_isa::{Cond, Inst, Reg, Src};

    fn two_block_program() -> Program {
        let mut p = Program::default();
        let mut f = Function::new("main");
        f.push_block(Block {
            insts: vec![Inst::Li {
                rd: Reg::int(8),
                imm: 1,
            }],
            term: Terminator::Br {
                cond: Cond::Eq,
                rs1: Reg::int(8),
                rs2: Src::Imm(0),
                taken: CodeRef::new(0, 2),
                not_taken: CodeRef::new(0, 1),
            },
        });
        f.push_block(Block::empty(Terminator::Goto(CodeRef::new(0, 2))));
        f.push_block(Block::empty(Terminator::Halt));
        p.push_func(f);
        p
    }

    #[test]
    fn natural_layout_uses_fallthrough() {
        let p = two_block_program();
        let l = Layout::natural(&p);
        assert_eq!(l.encoding(CodeRef::new(0, 0)), TermEncoding::BrFall);
        assert_eq!(l.encoding(CodeRef::new(0, 1)), TermEncoding::Fallthrough);
        assert_eq!(l.encoding(CodeRef::new(0, 2)), TermEncoding::Halt);
        // b0: li + br = 2 slots; b1: 0 slots; b2: 1 slot.
        assert_eq!(l.total_insts(), 3);
        assert_eq!(l.addr_of(CodeRef::new(0, 1)), CODE_BASE + 8);
        assert_eq!(l.addr_of(CodeRef::new(0, 2)), CODE_BASE + 8);
    }

    #[test]
    fn reordered_layout_inverts_branch() {
        let p = two_block_program();
        let mut order = LayoutOrder::natural(&p);
        order.set_block_order(FuncId(0), vec![BlockId(0), BlockId(2), BlockId(1)]);
        let l = Layout::new(&p, &order);
        // Now the taken successor (b2) is next: branch is inverted.
        assert_eq!(l.encoding(CodeRef::new(0, 0)), TermEncoding::BrInverted);
        // b1's goto to b2 can no longer fall through.
        assert_eq!(l.encoding(CodeRef::new(0, 1)), TermEncoding::Jump);
        assert_eq!(l.total_insts(), 4);
    }

    #[test]
    fn branch_addresses_map_back_to_blocks() {
        let p = two_block_program();
        let l = Layout::natural(&p);
        let br = l.branch_addr(CodeRef::new(0, 0));
        assert_eq!(br, CODE_BASE + 4);
        assert_eq!(l.branch_at(br), Some(CodeRef::new(0, 0)));
        assert_eq!(l.branch_at(br + 4), None);
    }

    #[test]
    fn func_ranges_are_contiguous() {
        let mut p = two_block_program();
        let mut g = Function::new("g");
        g.push_block(Block::empty(Terminator::Ret));
        p.push_func(g);
        let l = Layout::natural(&p);
        let (s0, e0) = l.func_range(FuncId(0));
        let (s1, e1) = l.func_range(FuncId(1));
        assert_eq!(e0, s1);
        assert_eq!(e1 - s0, l.total_bytes());
    }

    #[test]
    #[should_panic]
    fn incomplete_block_order_panics() {
        let p = two_block_program();
        let mut order = LayoutOrder::natural(&p);
        order.set_block_order(FuncId(0), vec![BlockId(0)]);
        Layout::new(&p, &order);
    }

    #[test]
    fn branch_plus_jump_when_no_successor_adjacent() {
        let p = two_block_program();
        let mut order = LayoutOrder::natural(&p);
        // Branch block last: neither successor can fall through.
        order.set_block_order(FuncId(0), vec![BlockId(1), BlockId(2), BlockId(0)]);
        let l = Layout::new(&p, &order);
        assert_eq!(l.encoding(CodeRef::new(0, 0)), TermEncoding::BrJump);
        assert_eq!(l.insts_of(CodeRef::new(0, 0)), 3);
    }
}
