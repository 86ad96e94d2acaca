use std::fmt;

use crate::insn::Insn;
use crate::sparse::SparseMem;
use crate::{Addr, Pc, Word};

/// Default base address of the data segment. Instruction "addresses" are
/// instruction indices, so text and data can never alias.
pub const DATA_BASE: Addr = 0x0001_0000;

/// An executable program: a text segment (one [`Insn`] per slot), an
/// initialized data segment, and an entry point.
///
/// Programs are produced by the [`crate::asm`] assembler or a
/// [`ProgramBuilder`], and consumed by the functional [`crate::Emulator`]
/// and by the timed pipeline models in `dmdp-core`.
#[derive(Clone, Debug)]
pub struct Program {
    name: String,
    text: Vec<Insn>,
    data_base: Addr,
    data: Vec<u8>,
    entry: Pc,
}

impl Program {
    /// Assembles the parts into a program.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is outside the text segment.
    pub fn new(name: impl Into<String>, text: Vec<Insn>, data_base: Addr, data: Vec<u8>, entry: Pc) -> Program {
        assert!((entry as usize) < text.len().max(1), "entry point outside text segment");
        Program { name: name.into(), text, data_base, data, entry }
    }

    /// Human-readable program name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The text segment.
    pub fn text(&self) -> &[Insn] {
        &self.text
    }

    /// Fetches the instruction at `pc`, or `None` past the end of text.
    #[inline]
    pub fn fetch(&self, pc: Pc) -> Option<Insn> {
        self.text.get(pc as usize).copied()
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the text segment is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Base address of the initialized data segment.
    pub fn data_base(&self) -> Addr {
        self.data_base
    }

    /// The initialized data bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Entry-point PC.
    pub fn entry(&self) -> Pc {
        self.entry
    }

    /// Materializes the initial memory image (data segment loaded).
    pub fn initial_memory(&self) -> SparseMem {
        let mut m = SparseMem::new();
        m.write_bytes(self.data_base, &self.data);
        m
    }

    /// Renders a disassembly listing, one instruction per line with its PC.
    pub fn listing(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        for (pc, insn) in self.text.iter().enumerate() {
            let _ = writeln!(s, "{pc:5}: {insn}");
        }
        s
    }
}

/// Incremental, programmatic construction of a [`Program`].
///
/// The builder keeps a cursor into the text segment and a data-segment
/// allocator; control flow uses explicit PCs obtained from
/// [`ProgramBuilder::here`] (for backward targets) or
/// [`ProgramBuilder::reserve`] + [`ProgramBuilder::patch`] (for forward
/// targets).
///
/// # Example
///
/// ```
/// use dmdp_isa::{Insn, ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new("count-down");
/// let r1 = Reg::new(1);
/// b.push(Insn::li(r1, 10));
/// let top = b.here();
/// b.push(Insn::addi(r1, r1, -1));
/// b.push(Insn::bgtz(r1, top));
/// b.push(Insn::halt());
/// let p = b.build();
/// assert_eq!(p.len(), 4);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    text: Vec<Insn>,
    data_base: Addr,
    data: Vec<u8>,
}

impl ProgramBuilder {
    /// Starts an empty program with the default data base.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder { name: name.into(), text: Vec::new(), data_base: DATA_BASE, data: Vec::new() }
    }

    /// Appends an instruction, returning its PC.
    pub fn push(&mut self, insn: Insn) -> Pc {
        self.text.push(insn);
        (self.text.len() - 1) as Pc
    }

    /// The PC the next pushed instruction will occupy.
    pub fn here(&self) -> Pc {
        self.text.len() as Pc
    }

    /// Reserves a slot (filled with `nop`) to be patched later, e.g. for a
    /// forward branch.
    pub fn reserve(&mut self) -> Pc {
        self.push(Insn::nop())
    }

    /// Replaces the instruction at a previously [`reserve`](Self::reserve)d
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of range.
    pub fn patch(&mut self, at: Pc, insn: Insn) {
        self.text[at as usize] = insn;
    }

    /// Appends `words` to the data segment (word-aligned), returning the
    /// address of the first one.
    pub fn data_words(&mut self, words: &[Word]) -> Addr {
        self.align(4);
        let addr = self.data_base + self.data.len() as u32;
        for w in words {
            self.data.extend_from_slice(&w.to_le_bytes());
        }
        addr
    }

    /// Appends raw bytes to the data segment, returning their address.
    pub fn data_bytes(&mut self, bytes: &[u8]) -> Addr {
        let addr = self.data_base + self.data.len() as u32;
        self.data.extend_from_slice(bytes);
        addr
    }

    /// Reserves `n` zeroed bytes in the data segment, returning their
    /// address.
    pub fn data_space(&mut self, n: usize) -> Addr {
        let addr = self.data_base + self.data.len() as u32;
        self.data.resize(self.data.len() + n, 0);
        addr
    }

    /// Pads the data segment to the given power-of-two alignment.
    pub fn align(&mut self, to: usize) {
        debug_assert!(to.is_power_of_two());
        while !(self.data_base as usize + self.data.len()).is_multiple_of(to) {
            self.data.push(0);
        }
    }

    /// Emits the canonical two-instruction sequence that materializes a
    /// 32-bit address constant into `rd` (`lui` + `ori`).
    pub fn load_addr(&mut self, rd: crate::Reg, addr: Addr) -> &mut Self {
        self.push(Insn::lui(rd, (addr >> 16) as i32));
        self.push(Insn::ori(rd, rd, (addr & 0xFFFF) as i32));
        self
    }

    /// Finishes construction.
    pub fn build(self) -> Program {
        Program::new(self.name, self.text, self.data_base, self.data, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn build_and_fetch() {
        let mut b = ProgramBuilder::new("t");
        b.push(Insn::li(Reg::new(1), 5));
        b.push(Insn::halt());
        let p = b.build();
        assert_eq!(p.name(), "t");
        assert_eq!(p.len(), 2);
        assert_eq!(p.fetch(1), Some(Insn::halt()));
        assert_eq!(p.fetch(2), None);
    }

    #[test]
    fn data_allocation_and_alignment() {
        let mut b = ProgramBuilder::new("t");
        let a = b.data_bytes(&[1, 2, 3]);
        let w = b.data_words(&[0xAABB_CCDD]);
        assert_eq!(a, DATA_BASE);
        assert_eq!(w, DATA_BASE + 4); // aligned past the 3 bytes
        b.push(Insn::halt());
        let p = b.build();
        let m = p.initial_memory();
        assert_eq!(m.read_byte(DATA_BASE), 1);
        assert_eq!(m.read_word(DATA_BASE + 4), 0xAABB_CCDD);
    }

    #[test]
    fn reserve_and_patch_forward_branch() {
        let mut b = ProgramBuilder::new("t");
        let slot = b.reserve();
        b.push(Insn::nop());
        let target = b.here();
        b.push(Insn::halt());
        b.patch(slot, Insn::j(target));
        let p = b.build();
        assert_eq!(p.fetch(0), Some(Insn::j(2)));
    }

    #[test]
    fn load_addr_sequence() {
        let mut b = ProgramBuilder::new("t");
        b.load_addr(Reg::new(8), 0x0001_2345);
        b.push(Insn::halt());
        let p = b.build();
        assert_eq!(p.fetch(0), Some(Insn::lui(Reg::new(8), 1)));
        assert_eq!(p.fetch(1), Some(Insn::ori(Reg::new(8), Reg::new(8), 0x2345)));
    }

    #[test]
    fn listing_contains_every_pc() {
        let mut b = ProgramBuilder::new("t");
        b.push(Insn::nop());
        b.push(Insn::halt());
        let listing = b.build().listing();
        assert!(listing.contains("0: nop"));
        assert!(listing.contains("1: halt"));
    }
}
