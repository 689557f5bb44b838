//! The architectural interpreter.

use crate::event::{col, Ctrl, Retired, Sink};
use crate::memory::Memory;
use vp_isa::reg::NUM_REGS;
use vp_isa::{AluOp, BlockId, CodeRef, FaluOp, FuClass, Inst, Reg, Src, INST_BYTES};
use vp_program::builder::STACK_BASE;
use vp_program::{Layout, Program, TermEncoding, Terminator};
use vp_trace::Counter;

/// Instructions retired across all runs.
static RETIRED: Counter = Counter::new("exec.retired");
/// Conditional branches retired across all runs.
static COND_BRANCHES: Counter = Counter::new("exec.cond_branches");
/// Instructions retired inside package functions (package residency).
static IN_PACKAGE: Counter = Counter::new("exec.in_package");

/// Execution limits.
///
/// Part of the [`crate::TraceKey`] cache identity: two runs of the same
/// program under different limits produce different retired streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunConfig {
    /// Maximum retired instructions before the run stops.
    pub max_insts: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            max_insts: 500_000_000,
            max_depth: 100_000,
        }
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed a `Halt`.
    Halted,
    /// The instruction limit was reached.
    InstLimit,
}

/// Summary of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Total retired instructions.
    pub retired: u64,
    /// Retired conditional branches.
    pub cond_branches: u64,
    /// Retired instructions from package functions.
    pub in_package: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A `Ret` executed with an empty call stack.
    ReturnWithoutCall(CodeRef),
    /// The call depth limit was exceeded.
    CallDepthExceeded(CodeRef),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ReturnWithoutCall(b) => write!(f, "return with empty call stack at {b}"),
            ExecError::CallDepthExceeded(b) => write!(f, "call depth exceeded at {b}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Interprets a laid-out program, feeding every retired instruction to a
/// [`Sink`].
#[derive(Debug)]
pub struct Executor<'p> {
    program: &'p Program,
    layout: &'p Layout,
    regs: [u64; NUM_REGS],
    mem: Memory,
    stack: Vec<CodeRef>,
    in_package: Vec<bool>,
}

impl<'p> Executor<'p> {
    /// Creates an executor with memory initialized from the program's data
    /// segments and `sp` pointing at the stack base.
    pub fn new(program: &'p Program, layout: &'p Layout) -> Executor<'p> {
        let mut regs = [0u64; NUM_REGS];
        regs[Reg::SP.index()] = STACK_BASE;
        Executor {
            program,
            layout,
            regs,
            mem: Memory::from_segments(&program.data),
            stack: Vec::new(),
            in_package: program.funcs.iter().map(|f| f.is_package()).collect(),
        }
    }

    /// Current value of a register.
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Current value of a register reinterpreted as `f64`.
    pub fn reg_f64(&self, r: Reg) -> f64 {
        f64::from_bits(self.reg(r))
    }

    /// The simulated data memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    fn read_src(&self, s: Src) -> u64 {
        match s {
            Src::Reg(r) => self.reg(r),
            Src::Imm(v) => v as u64,
        }
    }

    fn write(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Runs from the program entry until halt or a limit, feeding every
    /// retired instruction to `sink` in its [`col::event`] form.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on a return with an empty call stack or on
    /// call-depth overflow.
    pub fn run(&mut self, sink: &mut impl Sink, cfg: &RunConfig) -> Result<RunStats, ExecError> {
        self.run_with(cfg, |r| sink.retire(col::event(r)))
    }

    /// Runs from the program entry until halt or a limit, handing every
    /// retired instruction to `on_retire` in the interpreter's [`Retired`]
    /// form — the form the trace recorder encodes and reference models
    /// check the column form against. Consumers use [`Executor::run`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on a return with an empty call stack or on
    /// call-depth overflow.
    pub fn run_with<F: FnMut(&Retired)>(
        &mut self,
        cfg: &RunConfig,
        mut on_retire: F,
    ) -> Result<RunStats, ExecError> {
        let mut cur = CodeRef {
            func: self.program.entry,
            block: self.program.func(self.program.entry).entry,
        };
        let mut stats = RunStats {
            retired: 0,
            cond_branches: 0,
            in_package: 0,
            stop: StopReason::InstLimit,
        };

        while stats.retired < cfg.max_insts {
            let func = self.program.func(cur.func);
            let block = func.block(cur.block);
            let in_package = self.in_package[cur.func.0 as usize];
            let base = self.layout.addr_of(cur);

            for (i, inst) in block.insts.iter().enumerate() {
                let addr = base + i as u64 * INST_BYTES;
                let mut ev = Retired {
                    loc: cur,
                    addr,
                    fu: inst.fu(),
                    latency: inst.latency(),
                    def: None,
                    uses: [None; 3],
                    mem_addr: None,
                    is_store: false,
                    ctrl: None,
                    in_package,
                };
                self.step(inst, &mut ev);
                debug_assert_eq!((ev.def, ev.uses), inst_regs(inst), "{cur} slot {i}");
                stats.retired += 1;
                if in_package {
                    stats.in_package += 1;
                }
                on_retire(&ev);
            }

            // Terminator: a fall-through `Goto` retires nothing; every
            // other terminator retires one control instruction, and the
            // branch-plus-jump encoding's fall-through path one more jump.
            let enc = self.layout.encoding(cur);
            let term_addr = base + block.insts.len() as u64 * INST_BYTES;
            let jump = |target: u64| Ctrl {
                block: cur,
                is_cond: false,
                arch_taken: true,
                taken: true,
                is_call: false,
                is_ret: false,
                target,
                ret_addr: 0,
            };
            let (next, ctrl, uses) = match &block.term {
                Terminator::Goto(t) => {
                    if enc != TermEncoding::Jump {
                        cur = *t;
                        continue;
                    }
                    (Some(*t), jump(self.layout.addr_of(*t)), [None; 3])
                }
                Terminator::Br {
                    cond,
                    rs1,
                    rs2,
                    taken,
                    not_taken,
                } => {
                    let a = self.reg(*rs1);
                    let b = self.read_src(*rs2);
                    let arch = cond.eval(a, b);
                    let next = if arch { *taken } else { *not_taken };
                    let encoded_taken = match enc {
                        TermEncoding::BrFall | TermEncoding::BrJump => arch,
                        TermEncoding::BrInverted => !arch,
                        _ => unreachable!("conditional branch with non-branch encoding"),
                    };
                    let ctrl = Ctrl {
                        is_cond: true,
                        arch_taken: arch,
                        taken: encoded_taken,
                        ..jump(self.layout.addr_of(next))
                    };
                    (Some(next), ctrl, [Some(*rs1), rs2.reg(), None])
                }
                Terminator::Call { callee, ret_to } => {
                    let next = CodeRef {
                        func: *callee,
                        block: self.program.func(*callee).entry,
                    };
                    (Some(next), self.call(cur, next, *ret_to, cfg)?, [None; 3])
                }
                Terminator::CallThrough { target, ret_to } => (
                    Some(*target),
                    self.call(cur, *target, *ret_to, cfg)?,
                    [None; 3],
                ),
                Terminator::Ret => {
                    let Some(next) = self.stack.pop() else {
                        return Err(ExecError::ReturnWithoutCall(cur));
                    };
                    let ctrl = Ctrl {
                        is_ret: true,
                        ..jump(self.layout.addr_of(next))
                    };
                    (Some(next), ctrl, [None; 3])
                }
                Terminator::Halt => {
                    let ctrl = Ctrl {
                        arch_taken: false,
                        taken: false,
                        ..jump(0)
                    };
                    (None, ctrl, [None; 3])
                }
            };
            let mut emit = |addr: u64, ctrl: Ctrl, uses: [Option<Reg>; 3]| {
                stats.retired += 1;
                if in_package {
                    stats.in_package += 1;
                }
                if ctrl.is_cond {
                    stats.cond_branches += 1;
                }
                on_retire(&Retired {
                    loc: cur,
                    addr,
                    fu: FuClass::Branch,
                    latency: 1,
                    def: None,
                    uses,
                    mem_addr: None,
                    is_store: false,
                    ctrl: Some(ctrl),
                    in_package,
                });
            };
            emit(term_addr, ctrl, uses);
            if enc == TermEncoding::BrJump && ctrl.is_cond && !ctrl.arch_taken {
                emit(term_addr + INST_BYTES, jump(ctrl.target), [None; 3]);
            }
            match next {
                Some(next) => cur = next,
                None => {
                    stats.stop = StopReason::Halted;
                    break;
                }
            }
        }
        RETIRED.add(stats.retired);
        COND_BRANCHES.add(stats.cond_branches);
        IN_PACKAGE.add(stats.in_package);
        Ok(stats)
    }

    /// Pushes the return point of a call from `cur` and returns the
    /// call's control record.
    fn call(
        &mut self,
        cur: CodeRef,
        next: CodeRef,
        ret_to: BlockId,
        cfg: &RunConfig,
    ) -> Result<Ctrl, ExecError> {
        if self.stack.len() >= cfg.max_depth {
            return Err(ExecError::CallDepthExceeded(cur));
        }
        let ret = CodeRef {
            func: cur.func,
            block: ret_to,
        };
        self.stack.push(ret);
        Ok(Ctrl {
            block: cur,
            is_cond: false,
            arch_taken: true,
            taken: true,
            is_call: true,
            is_ret: false,
            target: self.layout.addr_of(next),
            ret_addr: self.layout.addr_of(ret),
        })
    }

    fn step(&mut self, inst: &Inst, ev: &mut Retired) {
        match inst {
            Inst::Nop => {}
            Inst::Li { rd, imm } => {
                self.write(*rd, *imm as u64);
                ev.def = Some(*rd);
            }
            Inst::Fli { rd, imm } => {
                self.write(*rd, imm.to_bits());
                ev.def = Some(*rd);
            }
            Inst::Mov { rd, rs } => {
                let v = self.reg(*rs);
                self.write(*rd, v);
                ev.def = Some(*rd);
                ev.uses[0] = Some(*rs);
            }
            Inst::Alu { op, rd, rs1, rs2 } => {
                let a = self.reg(*rs1);
                let b = self.read_src(*rs2);
                self.write(*rd, eval_alu(*op, a, b));
                ev.def = Some(*rd);
                ev.uses[0] = Some(*rs1);
                ev.uses[1] = rs2.reg();
            }
            Inst::Falu { op, rd, rs1, rs2 } => {
                let a = f64::from_bits(self.reg(*rs1));
                let b = f64::from_bits(self.reg(*rs2));
                self.write(*rd, eval_falu(*op, a, b).to_bits());
                ev.def = Some(*rd);
                ev.uses[0] = Some(*rs1);
                ev.uses[1] = Some(*rs2);
            }
            Inst::Itof { rd, rs } => {
                let v = self.reg(*rs) as i64 as f64;
                self.write(*rd, v.to_bits());
                ev.def = Some(*rd);
                ev.uses[0] = Some(*rs);
            }
            Inst::Ftoi { rd, rs } => {
                let v = f64::from_bits(self.reg(*rs)) as i64 as u64;
                self.write(*rd, v);
                ev.def = Some(*rd);
                ev.uses[0] = Some(*rs);
            }
            Inst::Load { rd, base, offset } => {
                let addr = self.reg(*base).wrapping_add(*offset as u64);
                let v = self.mem.read(addr);
                self.write(*rd, v);
                ev.def = Some(*rd);
                ev.uses[0] = Some(*base);
                ev.mem_addr = Some(addr);
            }
            Inst::Store { src, base, offset } => {
                let addr = self.reg(*base).wrapping_add(*offset as u64);
                let v = self.reg(*src);
                self.mem.write(addr, v);
                ev.uses[0] = Some(*src);
                ev.uses[1] = Some(*base);
                ev.mem_addr = Some(addr);
                ev.is_store = true;
            }
            Inst::Consume { .. } => {
                // Pseudo-instruction: architecturally a no-op.
            }
        }
    }
}

/// The register fields of `inst`'s retired event — its destination and
/// its sources in operand order — as the interpreter reports them. Trace
/// hits rebuild each recorded slot's exec word from this (see
/// [`CapturedTrace::fits`](crate::CapturedTrace::fits)).
pub(crate) fn inst_regs(inst: &Inst) -> (Option<Reg>, [Option<Reg>; 3]) {
    match inst {
        Inst::Nop | Inst::Consume { .. } => (None, [None; 3]),
        Inst::Li { rd, .. } | Inst::Fli { rd, .. } => (Some(*rd), [None; 3]),
        Inst::Mov { rd, rs } | Inst::Itof { rd, rs } | Inst::Ftoi { rd, rs } => {
            (Some(*rd), [Some(*rs), None, None])
        }
        Inst::Alu { rd, rs1, rs2, .. } => (Some(*rd), [Some(*rs1), rs2.reg(), None]),
        Inst::Falu { rd, rs1, rs2, .. } => (Some(*rd), [Some(*rs1), Some(*rs2), None]),
        Inst::Load { rd, base, .. } => (Some(*rd), [Some(*base), None, None]),
        Inst::Store { src, base, .. } => (None, [Some(*src), Some(*base), None]),
    }
}

fn eval_alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                (a as i64).wrapping_div(b as i64) as u64
            }
        }
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                (a as i64).wrapping_rem(b as i64) as u64
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a << (b & 63),
        AluOp::Shr => a >> (b & 63),
        AluOp::Sra => ((a as i64) >> (b & 63)) as u64,
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Sltu => (a < b) as u64,
        AluOp::Seq => (a == b) as u64,
    }
}

fn eval_falu(op: FaluOp, a: f64, b: f64) -> f64 {
    match op {
        FaluOp::Add => a + b,
        FaluOp::Sub => a - b,
        FaluOp::Mul => a * b,
        FaluOp::Div => a / b,
        FaluOp::Min => a.min(b),
        FaluOp::Max => a.max(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{InstCounts, NullSink};
    use vp_isa::Cond;
    use vp_program::ProgramBuilder;

    fn run_program(build: impl FnOnce(&mut ProgramBuilder)) -> (Program, RunStats, [u64; 4]) {
        let mut pb = ProgramBuilder::new();
        build(&mut pb);
        let p = pb.build();
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        let stats = ex
            .run(&mut NullSink, &RunConfig::default())
            .expect("run failed");
        let r = [
            ex.reg(Reg::int(20)),
            ex.reg(Reg::int(21)),
            ex.reg(Reg::int(22)),
            ex.reg(Reg::int(23)),
        ];
        (p, stats, r)
    }

    #[test]
    fn straight_line_arithmetic() {
        let (_, stats, r) = run_program(|pb| {
            pb.func("main", |f| {
                f.li(Reg::int(20), 6);
                f.li(Reg::int(21), 7);
                f.mul(Reg::int(22), Reg::int(20), Reg::int(21));
                f.halt();
            });
        });
        assert_eq!(r[2], 42);
        assert_eq!(stats.stop, StopReason::Halted);
        assert_eq!(stats.retired, 4);
    }

    #[test]
    fn loop_executes_expected_iterations() {
        let (_, stats, r) = run_program(|pb| {
            pb.func("main", |f| {
                let i = Reg::int(20);
                let acc = Reg::int(21);
                f.li(acc, 0);
                f.for_range(i, 0, 10, |f| {
                    f.add(acc, acc, i);
                });
                f.halt();
            });
        });
        assert_eq!(r[1], 45);
        assert_eq!(stats.cond_branches, 11); // 10 taken + 1 exit test
    }

    #[test]
    fn call_and_return() {
        let (_, _, r) = run_program(|pb| {
            let sq = pb.declare("square");
            pb.define(sq, |f| {
                f.mul(Reg::ARG0, Reg::ARG0, Reg::ARG0);
                f.ret();
            });
            let main = pb.declare("main");
            pb.define(main, |f| {
                f.call_args(sq, &[Src::Imm(9)]);
                f.mov(Reg::int(20), Reg::ARG0);
                f.halt();
            });
            pb.set_entry(main);
        });
        assert_eq!(r[0], 81);
    }

    #[test]
    fn recursion_computes_factorial() {
        let (_, _, r) = run_program(|pb| {
            let fact = pb.declare("fact");
            pb.define(fact, |f| {
                let n = Reg::ARG0;
                let c = f.cond(Cond::Lt, n, Src::Imm(2));
                f.if_else(
                    c,
                    |f| {
                        f.li(n, 1);
                        f.ret();
                    },
                    |f| {
                        // save n, recurse on n-1, multiply.
                        f.frame_alloc(1);
                        f.spill(n, 0);
                        f.addi(n, n, -1);
                        f.call(fact);
                        f.reload(Reg::int(30), 0);
                        f.mul(n, n, Reg::int(30));
                        f.frame_free(1);
                        f.ret();
                    },
                );
            });
            let main = pb.declare("main");
            pb.define(main, |f| {
                f.call_args(fact, &[Src::Imm(6)]);
                f.mov(Reg::int(20), Reg::ARG0);
                f.halt();
            });
            pb.set_entry(main);
        });
        assert_eq!(r[0], 720);
    }

    #[test]
    fn memory_roundtrip_through_program() {
        let mut pb = ProgramBuilder::new();
        let table = pb.data(vec![5, 10, 15]);
        pb.func("main", |f| {
            let b = Reg::int(25);
            f.li(b, table as i64);
            f.load(Reg::int(20), b, 8);
            f.addi(Reg::int(20), Reg::int(20), 1);
            f.store(Reg::int(20), b, 16);
            f.load(Reg::int(21), b, 16);
            f.halt();
        });
        let p = pb.build();
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(&mut NullSink, &RunConfig::default()).unwrap();
        assert_eq!(ex.reg(Reg::int(20)), 11);
        assert_eq!(ex.reg(Reg::int(21)), 11);
    }

    #[test]
    fn fp_pipeline() {
        let (_, _, _r) = run_program(|pb| {
            pb.func("main", |f| {
                f.fli(Reg::fp(0), 1.5);
                f.fli(Reg::fp(1), 2.0);
                f.falu(FaluOp::Mul, Reg::fp(2), Reg::fp(0), Reg::fp(1));
                f.ftoi(Reg::int(20), Reg::fp(2));
                f.halt();
            });
        });
        // computed inside run_program's register dump
    }

    #[test]
    fn fp_values_convert() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            f.li(Reg::int(20), 7);
            f.itof(Reg::fp(0), Reg::int(20));
            f.fli(Reg::fp(1), 0.5);
            f.falu(FaluOp::Add, Reg::fp(2), Reg::fp(0), Reg::fp(1));
            f.halt();
        });
        let p = pb.build();
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(&mut NullSink, &RunConfig::default()).unwrap();
        assert_eq!(ex.reg_f64(Reg::fp(2)), 7.5);
    }

    #[test]
    fn inst_limit_stops_infinite_loop() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            let head = f.new_block();
            f.goto(head);
            f.switch_to(head);
            f.nop();
            f.goto(head);
        });
        let p = pb.build();
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        let stats = ex
            .run(
                &mut NullSink,
                &RunConfig {
                    max_insts: 1000,
                    max_depth: 10,
                },
            )
            .unwrap();
        assert_eq!(stats.stop, StopReason::InstLimit);
        assert!(stats.retired >= 1000);
    }

    #[test]
    fn return_without_call_is_error() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| f.ret());
        let p = pb.build();
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        let err = ex.run(&mut NullSink, &RunConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::ReturnWithoutCall(_)));
    }

    #[test]
    fn event_stream_reports_branch_directions() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            let i = Reg::int(20);
            f.li(i, 0);
            f.for_range(i, 0, 4, |f| f.nop());
            f.halt();
        });
        let p = pb.build();
        let layout = Layout::natural(&p);
        let mut counts = InstCounts::new();
        let mut ex = Executor::new(&p, &layout);
        ex.run(&mut counts, &RunConfig::default()).unwrap();
        assert_eq!(counts.cond_branches, 5);
        assert!(counts.taken_transfers > 0);
    }

    #[test]
    fn div_by_zero_yields_zero() {
        assert_eq!(eval_alu(AluOp::Div, 5, 0), 0);
        assert_eq!(eval_alu(AluOp::Rem, 5, 0), 0);
    }

    #[test]
    fn signed_ops() {
        assert_eq!(eval_alu(AluOp::Div, (-6i64) as u64, 2), (-3i64) as u64);
        assert_eq!(eval_alu(AluOp::Sra, (-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(eval_alu(AluOp::Slt, (-1i64) as u64, 0), 1);
        assert_eq!(eval_alu(AluOp::Sltu, (-1i64) as u64, 0), 0);
    }
}

#[cfg(test)]
mod call_through_tests {
    use super::*;
    use crate::event::NullSink;
    use vp_program::{Block, FuncKind, Function, Terminator};

    /// Builds: main calls pkg; pkg block0 CallThroughs into helper's
    /// SECOND block (skipping its entry) pushing a trampoline; helper's
    /// Ret must land on the trampoline, which sets a marker then Rets to
    /// main's continuation.
    #[test]
    fn call_through_enters_mid_function_and_returns_to_trampoline() {
        let mut p = Program::default();
        // helper: b0 (entry, never run here) -> b1: r20 = 5; ret
        let mut helper = Function::new("helper");
        helper.push_block(Block {
            insts: vec![Inst::Li {
                rd: Reg::int(20),
                imm: 999,
            }],
            term: Terminator::Goto(CodeRef::new(0, 1)),
        });
        helper.push_block(Block {
            insts: vec![Inst::Li {
                rd: Reg::int(20),
                imm: 5,
            }],
            term: Terminator::Ret,
        });
        let helper_id = p.push_func(helper);

        // pkg: b0: CallThrough -> helper:b1, ret_to b1; b1: r21 = 7; ret
        let mut pkg = Function::new("pkg");
        pkg.kind = FuncKind::Package { phase: 0 };
        pkg.push_block(Block::empty(Terminator::CallThrough {
            target: CodeRef {
                func: helper_id,
                block: vp_isa::BlockId(1),
            },
            ret_to: vp_isa::BlockId(1),
        }));
        pkg.push_block(Block {
            insts: vec![Inst::Li {
                rd: Reg::int(21),
                imm: 7,
            }],
            term: Terminator::Ret,
        });
        let pkg_id = p.push_func(pkg);

        // main: call pkg; halt.
        let mut main = Function::new("main");
        main.push_block(Block::empty(Terminator::Call {
            callee: pkg_id,
            ret_to: vp_isa::BlockId(1),
        }));
        main.push_block(Block::empty(Terminator::Halt));
        let main_id = p.push_func(main);
        p.entry = main_id;
        p.validate().unwrap();

        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        let stats = ex.run(&mut NullSink, &RunConfig::default()).unwrap();
        assert_eq!(stats.stop, StopReason::Halted);
        assert_eq!(ex.reg(Reg::int(20)), 5, "entered helper at b1, not b0");
        assert_eq!(
            ex.reg(Reg::int(21)),
            7,
            "helper's ret reached the trampoline"
        );
    }
}
