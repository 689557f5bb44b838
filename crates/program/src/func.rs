//! Functions: named collections of basic blocks with a single entry.

use crate::block::{Block, EdgeKind};
use vp_isa::{BlockId, FuncId};

/// Whether a function is original program code or an extracted package.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuncKind {
    /// Code present in the input binary.
    Original,
    /// A Vacuum Packing package extracted for the given phase index.
    Package {
        /// Index of the phase (hot spot) this package was specialized for.
        phase: usize,
    },
}

/// A function: blocks indexed by [`BlockId`], one entry block.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Dense id within the owning [`crate::Program`]; assigned by
    /// [`crate::Program::push_func`].
    pub id: FuncId,
    /// Human-readable name (unique by builder convention, not enforced).
    pub name: String,
    /// The block where calls to this function begin executing.
    pub entry: BlockId,
    /// All blocks; `BlockId` indexes into this vector.
    pub blocks: Vec<Block>,
    /// Original code or extracted package.
    pub kind: FuncKind,
}

impl Function {
    /// Creates an empty original function. The id is assigned when the
    /// function is pushed into a program.
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            id: FuncId(0),
            name: name.into(),
            entry: BlockId(0),
            blocks: Vec::new(),
            kind: FuncKind::Original,
        }
    }

    /// Appends a block, returning its id.
    pub fn push_block(&mut self, b: Block) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(b);
        id
    }

    /// Looks up a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable block lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// Iterates `(BlockId, &Block)` pairs in id order.
    pub fn blocks_iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// All block ids in this function.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Intra-function successors of `b`.
    pub fn successors(&self, b: BlockId) -> Vec<(BlockId, EdgeKind)> {
        self.block(b).successors(self.id)
    }

    /// Static instruction count with each terminator at unit cost.
    pub fn static_insts(&self) -> u64 {
        self.blocks.iter().map(Block::static_insts).sum()
    }

    /// Whether this function is an extracted package.
    pub fn is_package(&self) -> bool {
        matches!(self.kind, FuncKind::Package { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Terminator;

    #[test]
    fn push_block_assigns_dense_ids() {
        let mut f = Function::new("f");
        let a = f.push_block(Block::empty(Terminator::Halt));
        let b = f.push_block(Block::empty(Terminator::Halt));
        assert_eq!(a, BlockId(0));
        assert_eq!(b, BlockId(1));
        assert_eq!(f.static_insts(), 2);
    }

    #[test]
    fn package_kind_reported() {
        let mut f = Function::new("pkg");
        f.kind = FuncKind::Package { phase: 2 };
        assert!(f.is_package());
        assert!(!Function::new("g").is_package());
    }
}
