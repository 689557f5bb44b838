//! Non-control instructions, operand sources, and machine-resource classes.
//!
//! Control transfers live in `vp-program`'s block terminators; everything
//! here is straight-line computation. Each instruction knows its defined and
//! used registers (for liveness and scheduling dependence), its functional
//! unit class, and its result latency on the Table 2 machine.

use crate::fp::Fnv;
use crate::reg::Reg;

/// A second source operand: either a register or a small immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// Register source.
    Reg(Reg),
    /// Immediate source.
    Imm(i64),
}

impl Src {
    /// The register read by this operand, if any.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Src::Reg(r) => Some(r),
            Src::Imm(_) => None,
        }
    }

    /// Folds this operand, tagged by kind, into a content fingerprint.
    pub fn fold_into(self, h: &mut Fnv) {
        let (tag, v) = match self {
            Src::Reg(r) => (0, r.index() as u64),
            Src::Imm(v) => (1, v as u64),
        };
        h.write_u64(tag);
        h.write_u64(v);
    }
}

impl From<Reg> for Src {
    fn from(r: Reg) -> Src {
        Src::Reg(r)
    }
}

impl From<i64> for Src {
    fn from(v: i64) -> Src {
        Src::Imm(v)
    }
}

impl std::fmt::Display for Src {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "{r}"),
            Src::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (multi-cycle).
    Mul,
    /// Signed division (long latency). Division by zero yields 0.
    Div,
    /// Signed remainder (long latency). Remainder by zero yields 0.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (modulo 64).
    Shl,
    /// Logical shift right (modulo 64).
    Shr,
    /// Arithmetic shift right (modulo 64).
    Sra,
    /// Set if less than (signed): `rd = (rs1 < rs2) as u64`.
    Slt,
    /// Set if less than (unsigned).
    Sltu,
    /// Set if equal: `rd = (rs1 == rs2) as u64`.
    Seq,
}

impl AluOp {
    /// Result latency in cycles on the Table 2 machine.
    pub fn latency(self) -> u32 {
        match self {
            AluOp::Mul => 3,
            AluOp::Div | AluOp::Rem => 12,
            _ => 1,
        }
    }
}

/// Floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaluOp {
    /// FP addition.
    Add,
    /// FP subtraction.
    Sub,
    /// FP multiplication.
    Mul,
    /// FP division (long latency).
    Div,
    /// FP minimum.
    Min,
    /// FP maximum.
    Max,
}

impl FaluOp {
    /// Result latency in cycles on the Table 2 machine. Division is a
    /// long-latency FP operation.
    pub fn latency(self) -> u32 {
        match self {
            FaluOp::Div => 15,
            FaluOp::Min | FaluOp::Max => 2,
            _ => 3,
        }
    }
}

/// Conditional-branch comparison conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl Cond {
    /// The condition taken when this one is not: used by layout to flip a
    /// branch so the hot successor becomes the fall-through.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Ltu => Cond::Geu,
            Cond::Geu => Cond::Ltu,
        }
    }

    /// Evaluates the condition on two 64-bit values.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }
}

/// Functional-unit classes of the Table 2 machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Integer ALU (5 units).
    IntAlu,
    /// Floating point, including long-latency FP (3 units).
    Fp,
    /// Memory (3 units).
    Mem,
    /// Control / branch (3 units).
    Branch,
}

/// A non-control instruction.
///
/// `defs`/`uses` expose the register-level data-flow needed by liveness
/// analysis, the exit-block dummy-consumer machinery, and the list
/// scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// No operation (schedule filler).
    Nop,
    /// Load immediate: `rd = imm`.
    Li {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// FP load immediate: `rd = bits(imm)`.
    Fli {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: f64,
    },
    /// Register move: `rd = rs`.
    Mov {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// Integer ALU operation: `rd = op(rs1, rs2)`.
    Alu {
        /// Operation performed.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source (register or immediate).
        rs2: Src,
    },
    /// FP operation: `rd = op(rs1, rs2)` (all registers FP).
    Falu {
        /// Operation performed.
        op: FaluOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Convert integer to FP: `rd = rs as f64`.
    Itof {
        /// Destination (FP) register.
        rd: Reg,
        /// Source (integer) register.
        rs: Reg,
    },
    /// Convert FP to integer (truncating): `rd = rs as i64`.
    Ftoi {
        /// Destination (integer) register.
        rd: Reg,
        /// Source (FP) register.
        rs: Reg,
    },
    /// Load a 64-bit word: `rd = mem[rs(base) + offset]`.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i64,
    },
    /// Store a 64-bit word: `mem[rs(base) + offset] = src`.
    Store {
        /// Register holding the value to store.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i64,
    },
    /// Pseudo-instruction: dummy consumers for registers live across a
    /// package exit (Section 3.3.1 of the paper). It executes as a no-op and
    /// exists so that data-flow analysis sees the exit's liveness without
    /// special cases.
    Consume {
        /// Registers live across the exit this pseudo-instruction guards.
        regs: Vec<Reg>,
    },
}

impl Inst {
    /// Registers written by this instruction. Writes to `r0` are discarded
    /// at execution but still reported here; the builder never emits them.
    pub fn defs(&self) -> Vec<Reg> {
        match self {
            Inst::Nop | Inst::Store { .. } | Inst::Consume { .. } => vec![],
            Inst::Li { rd, .. }
            | Inst::Fli { rd, .. }
            | Inst::Mov { rd, .. }
            | Inst::Alu { rd, .. }
            | Inst::Falu { rd, .. }
            | Inst::Itof { rd, .. }
            | Inst::Ftoi { rd, .. }
            | Inst::Load { rd, .. } => vec![*rd],
        }
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        match self {
            Inst::Nop | Inst::Li { .. } | Inst::Fli { .. } => {}
            Inst::Mov { rs, .. } | Inst::Itof { rs, .. } | Inst::Ftoi { rs, .. } => out.push(*rs),
            Inst::Alu { rs1, rs2, .. } => {
                out.push(*rs1);
                if let Src::Reg(r) = rs2 {
                    out.push(*r);
                }
            }
            Inst::Falu { rs1, rs2, .. } => {
                out.push(*rs1);
                out.push(*rs2);
            }
            Inst::Load { base, .. } => out.push(*base),
            Inst::Store { src, base, .. } => {
                out.push(*src);
                out.push(*base);
            }
            Inst::Consume { regs } => out.extend(regs.iter().copied()),
        }
        out.retain(|r| !r.is_zero());
        out
    }

    /// The functional-unit class that executes this instruction.
    pub fn fu(&self) -> FuClass {
        match self {
            Inst::Load { .. } | Inst::Store { .. } => FuClass::Mem,
            Inst::Falu { .. } | Inst::Fli { .. } | Inst::Itof { .. } | Inst::Ftoi { .. } => {
                FuClass::Fp
            }
            _ => FuClass::IntAlu,
        }
    }

    /// Result latency in cycles (time until a dependent instruction may
    /// issue, with full bypassing). Loads report their L1-hit latency; the
    /// timing model extends it on a miss.
    pub fn latency(&self) -> u32 {
        match self {
            Inst::Alu { op, .. } => op.latency(),
            Inst::Falu { op, .. } => op.latency(),
            Inst::Itof { .. } | Inst::Ftoi { .. } => 2,
            Inst::Load { .. } => 2,
            _ => 1,
        }
    }

    /// Whether this instruction touches memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }

    /// Folds the opcode and every operand into `h`: two instructions fold
    /// alike only when they are equal, so a program's fingerprint changes
    /// with any instruction it contains (see `vp_exec::TraceKey`).
    pub fn fold_into(&self, h: &mut Fnv) {
        let r = |r: &Reg| r.index() as u64;
        let words = |h: &mut Fnv, ws: &[u64]| ws.iter().for_each(|&w| h.write_u64(w));
        match self {
            Inst::Nop => words(h, &[0]),
            Inst::Li { rd, imm } => words(h, &[1, r(rd), *imm as u64]),
            Inst::Fli { rd, imm } => words(h, &[2, r(rd), imm.to_bits()]),
            Inst::Mov { rd, rs } => words(h, &[3, r(rd), r(rs)]),
            Inst::Alu { op, rd, rs1, rs2 } => {
                words(h, &[4, *op as u64, r(rd), r(rs1)]);
                rs2.fold_into(h);
            }
            Inst::Falu { op, rd, rs1, rs2 } => words(h, &[5, *op as u64, r(rd), r(rs1), r(rs2)]),
            Inst::Itof { rd, rs } => words(h, &[6, r(rd), r(rs)]),
            Inst::Ftoi { rd, rs } => words(h, &[7, r(rd), r(rs)]),
            Inst::Load { rd, base, offset } => words(h, &[8, r(rd), r(base), *offset as u64]),
            Inst::Store { src, base, offset } => words(h, &[9, r(src), r(base), *offset as u64]),
            Inst::Consume { regs } => {
                words(h, &[10, regs.len() as u64]);
                regs.iter().for_each(|x| h.write_u64(r(x)));
            }
        }
    }
}

impl std::fmt::Display for Inst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inst::Nop => write!(f, "nop"),
            Inst::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Inst::Fli { rd, imm } => write!(f, "fli {rd}, {imm}"),
            Inst::Mov { rd, rs } => write!(f, "mov {rd}, {rs}"),
            Inst::Alu { op, rd, rs1, rs2 } => write!(f, "{op:?} {rd}, {rs1}, {rs2}").map(|_| ()),
            Inst::Falu { op, rd, rs1, rs2 } => write!(f, "f{op:?} {rd}, {rs1}, {rs2}"),
            Inst::Itof { rd, rs } => write!(f, "itof {rd}, {rs}"),
            Inst::Ftoi { rd, rs } => write!(f, "ftoi {rd}, {rs}"),
            Inst::Load { rd, base, offset } => write!(f, "ld {rd}, {offset}({base})"),
            Inst::Store { src, base, offset } => write!(f, "st {src}, {offset}({base})"),
            Inst::Consume { regs } => {
                write!(f, "consume")?;
                for r in regs {
                    write!(f, " {r}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_and_uses_cover_operands() {
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::int(3),
            rs1: Reg::int(4),
            rs2: Src::Reg(Reg::int(5)),
        };
        assert_eq!(i.defs(), vec![Reg::int(3)]);
        assert_eq!(i.uses(), vec![Reg::int(4), Reg::int(5)]);
    }

    #[test]
    fn store_has_no_defs() {
        let i = Inst::Store {
            src: Reg::int(3),
            base: Reg::SP,
            offset: 8,
        };
        assert!(i.defs().is_empty());
        assert_eq!(i.uses(), vec![Reg::int(3), Reg::SP]);
    }

    #[test]
    fn zero_register_not_reported_as_use() {
        let i = Inst::Mov {
            rd: Reg::int(3),
            rs: Reg::ZERO,
        };
        assert!(i.uses().is_empty());
    }

    #[test]
    fn consume_uses_all_listed() {
        let i = Inst::Consume {
            regs: vec![Reg::int(1), Reg::fp(2)],
        };
        assert_eq!(i.uses().len(), 2);
        assert!(i.defs().is_empty());
    }

    #[test]
    fn latencies_follow_unit_classes() {
        assert_eq!(
            Inst::Alu {
                op: AluOp::Div,
                rd: Reg::int(1),
                rs1: Reg::int(2),
                rs2: Src::Imm(3)
            }
            .latency(),
            12
        );
        assert_eq!(
            Inst::Load {
                rd: Reg::int(1),
                base: Reg::SP,
                offset: 0
            }
            .latency(),
            2
        );
        assert_eq!(Inst::Nop.latency(), 1);
    }

    #[test]
    fn fu_classes() {
        assert_eq!(
            Inst::Load {
                rd: Reg::int(1),
                base: Reg::SP,
                offset: 0
            }
            .fu(),
            FuClass::Mem
        );
        assert_eq!(
            Inst::Falu {
                op: FaluOp::Add,
                rd: Reg::fp(0),
                rs1: Reg::fp(1),
                rs2: Reg::fp(2)
            }
            .fu(),
            FuClass::Fp
        );
        assert_eq!(Inst::Nop.fu(), FuClass::IntAlu);
    }

    #[test]
    fn cond_negate_is_involution() {
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu] {
            assert_eq!(c.negate().negate(), c);
            // A condition and its negation partition all outcomes.
            for (a, b) in [(1u64, 2u64), (2, 1), (5, 5), (u64::MAX, 0)] {
                assert_ne!(c.eval(a, b), c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn cond_eval_signedness() {
        assert!(Cond::Lt.eval((-1i64) as u64, 0));
        assert!(!Cond::Ltu.eval((-1i64) as u64, 0));
    }
}
