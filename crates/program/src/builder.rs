//! Structured program construction.
//!
//! The workload suite builds Table-1-style benchmark programs through this
//! DSL: structured control flow (`if_`, `while_`, `for_range`, `switch`)
//! lowers to basic blocks with explicit terminators, producing exactly the
//! shape a compiler's code generator would hand to the linker.
//!
//! ```
//! use vp_program::ProgramBuilder;
//! use vp_isa::{Cond, Reg, Src};
//!
//! let mut pb = ProgramBuilder::new();
//! let main = pb.declare("main");
//! pb.define(main, |f| {
//!     let i = Reg::int(8);
//!     f.li(i, 0);
//!     f.while_(
//!         |f| f.cond(Cond::Lt, i, Src::Imm(10)),
//!         |f| {
//!             f.addi(i, i, 1);
//!         },
//!     );
//!     f.halt();
//! });
//! let p = pb.build();
//! p.validate().unwrap();
//! ```

use crate::block::{Block, Terminator};
use crate::func::Function;
use crate::{DataSegment, Program};
use std::collections::HashMap;
use vp_isa::{AluOp, BlockId, CodeRef, Cond, FaluOp, FuncId, Inst, Reg, Src};

/// Base address of the builder-managed data region.
pub const DATA_BASE: u64 = 0x1000_0000;
/// Base address of the stack (grows downward).
pub const STACK_BASE: u64 = 0x7fff_0000;

/// A comparison awaiting use by a conditional construct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CondExpr {
    /// Comparison condition.
    pub cond: Cond,
    /// Left operand.
    pub rs1: Reg,
    /// Right operand.
    pub rs2: Src,
}

/// Builds a whole [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    funcs: Vec<Function>,
    defined: Vec<bool>,
    names: HashMap<String, FuncId>,
    data: Vec<DataSegment>,
    next_data: u64,
    entry: Option<FuncId>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder {
            next_data: DATA_BASE,
            ..ProgramBuilder::default()
        }
    }

    /// Declares a function name, returning its id. Bodies may reference
    /// declared-but-not-yet-defined functions, enabling mutual recursion.
    ///
    /// # Panics
    ///
    /// Panics if the name was already declared.
    pub fn declare(&mut self, name: &str) -> FuncId {
        assert!(
            !self.names.contains_key(name),
            "function {name} declared twice"
        );
        let id = FuncId(self.funcs.len() as u32);
        let mut f = Function::new(name);
        f.id = id;
        self.funcs.push(f);
        self.defined.push(false);
        self.names.insert(name.to_string(), id);
        if self.entry.is_none() {
            self.entry = Some(id);
        }
        id
    }

    /// Defines the body of a declared function.
    ///
    /// # Panics
    ///
    /// Panics if the function was already defined, or if the body leaves an
    /// unterminated block.
    pub fn define(&mut self, id: FuncId, build: impl FnOnce(&mut FunctionBuilder)) {
        assert!(!self.defined[id.0 as usize], "function {id} defined twice");
        let mut fb = FunctionBuilder::new(id);
        build(&mut fb);
        let blocks = fb.finish();
        self.funcs[id.0 as usize].blocks = blocks;
        self.defined[id.0 as usize] = true;
    }

    /// Declares and defines a function in one step.
    pub fn func(&mut self, name: &str, build: impl FnOnce(&mut FunctionBuilder)) -> FuncId {
        let id = self.declare(name);
        self.define(id, build);
        id
    }

    /// Looks up a declared function by name.
    pub fn lookup(&self, name: &str) -> Option<FuncId> {
        self.names.get(name).copied()
    }

    /// Allocates an initialized data segment, returning its base address.
    pub fn data(&mut self, words: Vec<u64>) -> u64 {
        let base = self.next_data;
        self.next_data += 8 * words.len().max(1) as u64;
        self.data.push(DataSegment::new(base, words));
        base
    }

    /// Allocates `n` zeroed words, returning the base address.
    pub fn zeros(&mut self, n: usize) -> u64 {
        self.data(vec![0; n])
    }

    /// Sets the program entry function (defaults to the first declared).
    pub fn set_entry(&mut self, f: FuncId) {
        self.entry = Some(f);
    }

    /// Finalizes the program.
    ///
    /// # Panics
    ///
    /// Panics if any declared function lacks a definition or if the
    /// assembled program fails validation.
    pub fn build(self) -> Program {
        for (i, d) in self.defined.iter().enumerate() {
            assert!(
                *d,
                "function {} declared but never defined",
                self.funcs[i].name
            );
        }
        let p = Program {
            funcs: self.funcs,
            entry: self.entry.expect("program has no functions"),
            data: self.data,
        };
        if let Err(e) = p.validate() {
            panic!("builder produced invalid program: {e}");
        }
        p
    }
}

struct ProtoBlock {
    insts: Vec<Inst>,
    term: Option<Terminator>,
}

/// One arm of [`FunctionBuilder::switch`]: the selector constant and the
/// closure that emits the arm's body.
pub type SwitchArm<'a> = (i64, Box<dyn FnOnce(&mut FunctionBuilder) + 'a>);

/// Builds one function's body.
pub struct FunctionBuilder {
    fid: FuncId,
    blocks: Vec<ProtoBlock>,
    cur: usize,
}

impl FunctionBuilder {
    fn new(fid: FuncId) -> FunctionBuilder {
        FunctionBuilder {
            fid,
            blocks: vec![ProtoBlock {
                insts: vec![],
                term: None,
            }],
            cur: 0,
        }
    }

    /// The id of the function being built.
    pub fn func_id(&self) -> FuncId {
        self.fid
    }

    /// The block currently receiving instructions.
    pub fn current_block(&self) -> BlockId {
        BlockId(self.cur as u32)
    }

    fn cref(&self, b: BlockId) -> CodeRef {
        CodeRef {
            func: self.fid,
            block: b,
        }
    }

    /// Creates a new, empty, unterminated block without switching to it.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(ProtoBlock {
            insts: vec![],
            term: None,
        });
        id
    }

    /// Switches instruction emission to `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is already terminated or if the current block is not.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(
            self.blocks[self.cur].term.is_some(),
            "switching away from unterminated block {}",
            self.cur
        );
        assert!(
            self.blocks[b.0 as usize].term.is_none(),
            "switching to terminated block {b}"
        );
        self.cur = b.0 as usize;
    }

    /// Emits a raw instruction into the current block.
    ///
    /// # Panics
    ///
    /// Panics if the current block is already terminated.
    pub fn emit(&mut self, i: Inst) {
        assert!(
            self.blocks[self.cur].term.is_none(),
            "emitting into terminated block"
        );
        self.blocks[self.cur].insts.push(i);
    }

    fn terminate(&mut self, t: Terminator) {
        assert!(
            self.blocks[self.cur].term.is_none(),
            "block terminated twice"
        );
        self.blocks[self.cur].term = Some(t);
    }

    // ---- instruction sugar -------------------------------------------------

    /// `rd = imm`.
    pub fn li(&mut self, rd: Reg, imm: i64) {
        self.emit(Inst::Li { rd, imm });
    }

    /// `rd = imm` (floating point).
    pub fn fli(&mut self, rd: Reg, imm: f64) {
        self.emit(Inst::Fli { rd, imm });
    }

    /// `rd = rs`.
    pub fn mov(&mut self, rd: Reg, rs: Reg) {
        self.emit(Inst::Mov { rd, rs });
    }

    /// `rd = op(rs1, rs2)`.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: impl Into<Src>) {
        self.emit(Inst::Alu {
            op,
            rd,
            rs1,
            rs2: rs2.into(),
        });
    }

    /// `rd = rs1 + rs2`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Src>) {
        self.alu(AluOp::Add, rd, rs1, rs2);
    }

    /// `rd = rs1 + imm` (alias of [`FunctionBuilder::add`] for immediates).
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i64) {
        self.alu(AluOp::Add, rd, rs1, imm);
    }

    /// `rd = rs1 - rs2`.
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Src>) {
        self.alu(AluOp::Sub, rd, rs1, rs2);
    }

    /// `rd = rs1 * rs2`.
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Src>) {
        self.alu(AluOp::Mul, rd, rs1, rs2);
    }

    /// `rd = rs1 / rs2` (signed; division by zero yields 0).
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Src>) {
        self.alu(AluOp::Div, rd, rs1, rs2);
    }

    /// `rd = rs1 % rs2` (signed; remainder by zero yields 0).
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Src>) {
        self.alu(AluOp::Rem, rd, rs1, rs2);
    }

    /// `rd = rs1 & rs2`.
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Src>) {
        self.alu(AluOp::And, rd, rs1, rs2);
    }

    /// `rd = rs1 | rs2`.
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Src>) {
        self.alu(AluOp::Or, rd, rs1, rs2);
    }

    /// `rd = rs1 ^ rs2`.
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Src>) {
        self.alu(AluOp::Xor, rd, rs1, rs2);
    }

    /// `rd = rs1 << rs2`.
    pub fn shl(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Src>) {
        self.alu(AluOp::Shl, rd, rs1, rs2);
    }

    /// `rd = rs1 >> rs2` (logical).
    pub fn shr(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Src>) {
        self.alu(AluOp::Shr, rd, rs1, rs2);
    }

    /// `rd = op(rs1, rs2)` (floating point).
    pub fn falu(&mut self, op: FaluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Falu { op, rd, rs1, rs2 });
    }

    /// `rd = rs as f64`.
    pub fn itof(&mut self, rd: Reg, rs: Reg) {
        self.emit(Inst::Itof { rd, rs });
    }

    /// `rd = rs as i64` (truncating).
    pub fn ftoi(&mut self, rd: Reg, rs: Reg) {
        self.emit(Inst::Ftoi { rd, rs });
    }

    /// `rd = mem[base + offset]`.
    pub fn load(&mut self, rd: Reg, base: Reg, offset: i64) {
        self.emit(Inst::Load { rd, base, offset });
    }

    /// `mem[base + offset] = src`.
    pub fn store(&mut self, src: Reg, base: Reg, offset: i64) {
        self.emit(Inst::Store { src, base, offset });
    }

    /// Emits a no-op.
    pub fn nop(&mut self) {
        self.emit(Inst::Nop);
    }

    /// Builds a [`CondExpr`] for use with the structured constructs.
    pub fn cond(&mut self, cond: Cond, rs1: Reg, rs2: impl Into<Src>) -> CondExpr {
        CondExpr {
            cond,
            rs1,
            rs2: rs2.into(),
        }
    }

    // ---- terminators -------------------------------------------------------

    /// Ends the current block with an unconditional transfer.
    pub fn goto(&mut self, b: BlockId) {
        let t = self.cref(b);
        self.terminate(Terminator::Goto(t));
    }

    /// Ends the current block with a conditional branch.
    pub fn branch(&mut self, c: CondExpr, taken: BlockId, not_taken: BlockId) {
        let (t, nt) = (self.cref(taken), self.cref(not_taken));
        self.terminate(Terminator::Br {
            cond: c.cond,
            rs1: c.rs1,
            rs2: c.rs2,
            taken: t,
            not_taken: nt,
        });
    }

    /// Ends the current block with a call; emission continues in a fresh
    /// continuation block.
    pub fn call(&mut self, callee: FuncId) {
        let cont = self.new_block();
        self.terminate(Terminator::Call {
            callee,
            ret_to: cont,
        });
        self.cur = cont.0 as usize;
    }

    /// Moves `args` into the argument registers, then calls `callee`.
    ///
    /// # Panics
    ///
    /// Panics if more than 8 arguments are given.
    pub fn call_args(&mut self, callee: FuncId, args: &[Src]) {
        assert!(args.len() <= 8, "at most 8 register arguments");
        for (i, &a) in args.iter().enumerate() {
            match a {
                Src::Reg(r) => {
                    if r != Reg::arg(i as u8) {
                        self.mov(Reg::arg(i as u8), r);
                    }
                }
                Src::Imm(v) => self.li(Reg::arg(i as u8), v),
            }
        }
        self.call(callee);
    }

    /// Ends the current block with a return.
    pub fn ret(&mut self) {
        self.terminate(Terminator::Ret);
    }

    /// Ends the current block with a halt.
    pub fn halt(&mut self) {
        self.terminate(Terminator::Halt);
    }

    // ---- structured control flow -------------------------------------------

    /// `if cond { then }`: branches to `then` when the condition holds,
    /// joining afterwards.
    pub fn if_(&mut self, c: CondExpr, then: impl FnOnce(&mut Self)) {
        let then_b = self.new_block();
        let join = self.new_block();
        self.branch(c, then_b, join);
        self.cur = then_b.0 as usize;
        then(self);
        if self.blocks[self.cur].term.is_none() {
            self.goto(join);
        }
        self.cur = join.0 as usize;
    }

    /// `if cond { then } else { els }`.
    pub fn if_else(
        &mut self,
        c: CondExpr,
        then: impl FnOnce(&mut Self),
        els: impl FnOnce(&mut Self),
    ) {
        let then_b = self.new_block();
        let else_b = self.new_block();
        let join = self.new_block();
        self.branch(c, then_b, else_b);
        self.cur = then_b.0 as usize;
        then(self);
        if self.blocks[self.cur].term.is_none() {
            self.goto(join);
        }
        self.cur = else_b.0 as usize;
        els(self);
        if self.blocks[self.cur].term.is_none() {
            self.goto(join);
        }
        self.cur = join.0 as usize;
    }

    /// `while cond { body }`. The `header` closure may emit instructions to
    /// compute the condition; it runs once per iteration.
    pub fn while_(
        &mut self,
        header: impl FnOnce(&mut Self) -> CondExpr,
        body: impl FnOnce(&mut Self),
    ) {
        let head = self.new_block();
        let body_b = self.new_block();
        let exit = self.new_block();
        self.goto(head);
        self.cur = head.0 as usize;
        let c = header(self);
        self.branch(c, body_b, exit);
        self.cur = body_b.0 as usize;
        body(self);
        if self.blocks[self.cur].term.is_none() {
            self.goto(head);
        }
        self.cur = exit.0 as usize;
    }

    /// `do { body } while cond`: the body runs at least once; the trailer
    /// closure computes the loop-back condition.
    pub fn do_while(
        &mut self,
        body: impl FnOnce(&mut Self),
        trailer: impl FnOnce(&mut Self) -> CondExpr,
    ) {
        let body_b = self.new_block();
        let exit = self.new_block();
        self.goto(body_b);
        self.cur = body_b.0 as usize;
        body(self);
        let c = trailer(self);
        self.branch(c, body_b, exit);
        self.cur = exit.0 as usize;
    }

    /// `for i in start..end { body }` with `i` held in `counter`.
    pub fn for_range(
        &mut self,
        counter: Reg,
        start: i64,
        end: impl Into<Src>,
        body: impl FnOnce(&mut Self),
    ) {
        let end = end.into();
        self.li(counter, start);
        self.while_(
            |f| f.cond(Cond::Lt, counter, end),
            |f| {
                body(f);
                f.addi(counter, counter, 1);
            },
        );
    }

    /// A dispatch ladder comparing `selector` against each arm's constant:
    /// the software equivalent of a switch statement.
    pub fn switch(
        &mut self,
        selector: Reg,
        arms: Vec<SwitchArm<'_>>,
        default: impl FnOnce(&mut Self),
    ) {
        let join = self.new_block();
        for (value, arm) in arms {
            let arm_b = self.new_block();
            let next = self.new_block();
            let c = self.cond(Cond::Eq, selector, Src::Imm(value));
            self.branch(c, arm_b, next);
            self.cur = arm_b.0 as usize;
            arm(self);
            if self.blocks[self.cur].term.is_none() {
                self.goto(join);
            }
            self.cur = next.0 as usize;
        }
        default(self);
        if self.blocks[self.cur].term.is_none() {
            self.goto(join);
        }
        self.cur = join.0 as usize;
    }

    // ---- stack frames --------------------------------------------------

    /// Opens a frame of `words` stack words (`sp -= 8 * words`).
    pub fn frame_alloc(&mut self, words: i64) {
        self.alu(AluOp::Sub, Reg::SP, Reg::SP, 8 * words);
    }

    /// Closes a frame opened by [`FunctionBuilder::frame_alloc`].
    pub fn frame_free(&mut self, words: i64) {
        self.alu(AluOp::Add, Reg::SP, Reg::SP, 8 * words);
    }

    /// Stores `r` into frame slot `slot`.
    pub fn spill(&mut self, r: Reg, slot: i64) {
        self.store(r, Reg::SP, 8 * slot);
    }

    /// Loads `r` from frame slot `slot`.
    pub fn reload(&mut self, r: Reg, slot: i64) {
        self.load(r, Reg::SP, 8 * slot);
    }

    fn finish(self) -> Vec<Block> {
        // A structured construct may leave its join block unterminated when
        // every path out of the construct returns or halts; such joins are
        // unreachable dead code and are sealed with `Halt`. An unterminated
        // block that *is* referenced is a construction bug.
        let mut referenced = vec![false; self.blocks.len()];
        referenced[0] = true;
        for pb in &self.blocks {
            if let Some(t) = &pb.term {
                for target in t.code_targets() {
                    if target.func == self.fid {
                        referenced[target.block.0 as usize] = true;
                    }
                }
                if let Terminator::Call { ret_to, .. } = t {
                    referenced[ret_to.0 as usize] = true;
                }
            }
        }
        self.blocks
            .into_iter()
            .enumerate()
            .map(|(i, pb)| {
                let term = match pb.term {
                    Some(t) => t,
                    None if !referenced[i] => Terminator::Halt,
                    None => panic!("block b{i} left unterminated"),
                };
                Block {
                    insts: pb.insts,
                    term,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;

    #[test]
    fn if_else_shapes_a_diamond() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            let r = Reg::int(8);
            f.li(r, 1);
            let c = f.cond(Cond::Eq, r, Src::Imm(1));
            f.if_else(c, |f| f.li(r, 2), |f| f.li(r, 3));
            f.halt();
        });
        let p = pb.build();
        let cfg = Cfg::new(p.func(FuncId(0)));
        // entry branches to two blocks that join.
        assert_eq!(cfg.succs(BlockId(0)).len(), 2);
        let join = cfg.succs(BlockId(1))[0].0;
        assert_eq!(cfg.succs(BlockId(2))[0].0, join);
    }

    #[test]
    fn while_creates_back_edge() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            let i = Reg::int(8);
            f.li(i, 0);
            f.while_(|f| f.cond(Cond::Lt, i, Src::Imm(5)), |f| f.addi(i, i, 1));
            f.halt();
        });
        let p = pb.build();
        let cfg = Cfg::new(p.func(FuncId(0)));
        assert_eq!(cfg.back_edges().len(), 1);
    }

    #[test]
    fn call_splits_block_at_continuation() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("callee");
        pb.define(callee, |f| f.ret());
        let main = pb.declare("main");
        pb.define(main, |f| {
            f.call(callee);
            f.halt();
        });
        pb.set_entry(main);
        let p = pb.build();
        let mf = p.func(main);
        assert!(matches!(mf.block(BlockId(0)).term, Terminator::Call { .. }));
    }

    #[test]
    fn call_args_loads_argument_registers() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("callee");
        pb.define(callee, |f| f.ret());
        let main = pb.declare("main");
        pb.define(main, |f| {
            f.call_args(callee, &[Src::Imm(7), Src::Reg(Reg::int(20))]);
            f.halt();
        });
        pb.set_entry(main);
        let p = pb.build();
        let b0 = p.func(main).block(BlockId(0));
        assert_eq!(b0.insts.len(), 2);
        assert_eq!(
            b0.insts[0],
            Inst::Li {
                rd: Reg::arg(0),
                imm: 7
            }
        );
        assert_eq!(
            b0.insts[1],
            Inst::Mov {
                rd: Reg::arg(1),
                rs: Reg::int(20)
            }
        );
    }

    #[test]
    fn switch_builds_dispatch_ladder() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            let s = Reg::int(8);
            f.li(s, 2);
            f.switch(
                s,
                vec![
                    (
                        1,
                        Box::new(|f: &mut FunctionBuilder| f.li(Reg::int(9), 100)),
                    ),
                    (
                        2,
                        Box::new(|f: &mut FunctionBuilder| f.li(Reg::int(9), 200)),
                    ),
                ],
                |f| f.li(Reg::int(9), 0),
            );
            f.halt();
        });
        let p = pb.build();
        // Two comparisons appear as two conditional branches.
        let branches = p
            .func(FuncId(0))
            .blocks
            .iter()
            .filter(|b| b.term.is_cond_branch())
            .count();
        assert_eq!(branches, 2);
    }

    #[test]
    #[should_panic(expected = "unterminated")]
    fn unterminated_function_panics() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            f.li(Reg::int(8), 0);
            // no terminator
        });
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_names_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.declare("f");
        pb.declare("f");
    }

    #[test]
    fn data_segments_do_not_overlap() {
        let mut pb = ProgramBuilder::new();
        let a = pb.data(vec![1, 2, 3]);
        let b = pb.zeros(5);
        assert!(b >= a + 24);
        pb.func("main", |f| f.halt());
        let p = pb.build();
        assert_eq!(p.data.len(), 2);
    }
}
