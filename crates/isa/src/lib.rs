#![warn(missing_docs)]
//! # dmdp-isa
//!
//! Instruction set architecture for the DMDP (Dynamic Memory Dependence
//! Predication, ISCA 2018) reproduction.
//!
//! This crate defines a MIPS-I-like 32-bit RISC ISA — registers, opcodes,
//! instructions — together with everything a micro-architectural simulator
//! needs to run programs written in it:
//!
//! * [`Insn`] / [`Op`]: the architectural instruction set,
//! * [`uop`]: the micro-op (µop) layer the out-of-order core executes,
//!   including the `AGI`, `CMP` and `CMOV` µops the paper introduces,
//! * [`asm`]: a small assembler (labels, `.data` directives) used by the
//!   workload kernels and examples,
//! * [`Emulator`]: a functional (architecturally exact) emulator that serves
//!   as the golden reference for every pipeline model and produces the
//!   oracle dependence trace used by the paper's *Perfect* model,
//! * [`bab`]: Byte-Access-Bits helpers implementing the paper's
//!   partial-word forwarding rules (§IV-D).
//!
//! # Example
//!
//! ```
//! use dmdp_isa::{asm, Emulator};
//!
//! let program = asm::assemble(
//!     r#"
//!         .data
//!     value: .word 41
//!         .text
//!         lui  $8, %hi(value)
//!         ori  $8, $8, %lo(value)
//!         lw   $9, 0($8)
//!         addi $9, $9, 1
//!         sw   $9, 0($8)
//!         halt
//!     "#,
//! )?;
//! let mut emu = Emulator::new(&program);
//! let result = emu.run(1_000)?;
//! assert_eq!(result.retired, 6);
//! assert_eq!(emu.load_word(program.data_base()), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod asm;
pub mod bab;
pub mod checkpoint;
mod emu;
pub mod encode;
mod insn;
mod op;
mod pagedir;
mod program;
mod reg;
mod sparse;
pub mod uop;

pub use checkpoint::{Checkpoint, IntervalFeatures, IntervalProfile};
pub use emu::{EmuError, Emulator, OracleTrace, RunResult, StepOutcome, StopReason};
pub use insn::Insn;
pub use op::{AluOp, BranchCond, MemWidth, Op};
pub use program::{Program, ProgramBuilder};
pub use reg::Reg;
pub use sparse::{SparseMem, PAGE_BYTES};

/// A 32-bit byte address in the simulated machine.
pub type Addr = u32;

/// A 32-bit machine word.
pub type Word = u32;

/// Program counter measured in *instruction index* units.
///
/// The assembler lays instructions out densely, one slot per instruction;
/// sequential execution increments the PC by one. This keeps the
/// instruction and data address spaces disjoint by construction.
pub type Pc = u32;
