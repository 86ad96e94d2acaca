use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use crate::checkpoint::{
    dep_bucket, Checkpoint, IntervalFeatures, IntervalProfile, LOC_LINE_BYTES,
};
use crate::insn::Insn;
use crate::op::{AluOp, MemWidth, Op};
use crate::pagedir::PageDir;
use crate::program::Program;
use crate::reg::Reg;
use crate::sparse::{SparseMem, PAGE_BYTES, PAGE_SHIFT};
use crate::{Addr, Pc, Word};

/// Error produced by the functional emulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The PC walked past the end of the text segment without hitting
    /// `halt`.
    PcOutOfRange {
        /// The offending PC.
        pc: Pc,
    },
    /// `run` reached its step limit before the program halted.
    StepLimit {
        /// The limit that was exhausted.
        limit: u64,
    },
    /// An unaligned memory access was attempted.
    Unaligned {
        /// The PC of the faulting instruction.
        pc: Pc,
        /// The faulting address.
        addr: Addr,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange { pc } => write!(f, "pc {pc} outside text segment"),
            EmuError::StepLimit { limit } => write!(f, "step limit {limit} exhausted before halt"),
            EmuError::Unaligned { pc, addr } => {
                write!(f, "unaligned access at {addr:#x} (pc {pc})")
            }
        }
    }
}

impl Error for EmuError {}

/// What a single [`Emulator::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired; execution continues.
    Retired(RetiredEvent),
    /// A `halt` retired; the machine is stopped.
    Halted,
}

/// Why a bounded run ([`Emulator::run_insns`]) stopped.
///
/// Sampling fast-forward must distinguish "the instruction budget was
/// spent" (resume later) from "the program retired `halt`" (there is
/// nothing left to simulate) — conflating the two would silently
/// truncate runs, which is why budget exhaustion in the unbounded
/// entry points is a *named error* ([`EmuError::StepLimit`]) rather
/// than a normal return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program retired `halt` within the budget.
    Halted,
    /// The instruction budget ran out first; execution can resume.
    BudgetExhausted,
}

/// The architectural effect of one retired instruction — used by
/// co-simulation tests to check the out-of-order models instruction by
/// instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetiredEvent {
    /// PC of the retired instruction.
    pub pc: Pc,
    /// The instruction itself.
    pub insn: Insn,
    /// Register write performed, if any.
    pub wrote: Option<(Reg, Word)>,
    /// Memory effect, if any.
    pub mem: Option<MemEvent>,
    /// PC of the next instruction.
    pub next_pc: Pc,
}

/// A memory access performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// Effective byte address.
    pub addr: Addr,
    /// The value loaded (post-extension) or stored (pre-truncation).
    pub value: Word,
    /// Whether this was a store.
    pub is_store: bool,
}

/// Summary of a completed [`Emulator::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunResult {
    /// Dynamic instructions retired, `halt` included.
    pub retired: u64,
    /// Dynamic loads retired.
    pub loads: u64,
    /// Dynamic stores retired.
    pub stores: u64,
    /// Dynamic conditional branches retired.
    pub branches: u64,
}

/// Per-dynamic-load oracle facts extracted by a functional pre-pass.
///
/// This is the knowledge the paper's *Perfect* memory dependence predictor
/// is assumed to have: for the *n*-th dynamic load, which store (by store
/// sequence number, 1-based in program order) last wrote any byte the load
/// reads — `0` when the location was never stored to — and the exact value
/// the load observes.
#[derive(Debug, Clone, Default)]
pub struct OracleTrace {
    /// `last_writer_ssn[n]` = SSN of the youngest earlier store overlapping
    /// dynamic load `n` (0 = none).
    pub last_writer_ssn: Vec<u32>,
    /// The architecturally correct value of dynamic load `n`.
    pub load_values: Vec<Word>,
    /// Total dynamic stores in the run.
    pub store_count: u32,
}

/// Tracks, per byte of memory, the SSN of the last store that wrote it.
/// Accesses are naturally aligned, so each lies inside one 4 KiB page
/// and costs one page-directory lookup.
#[derive(Default)]
struct LastWriter {
    pages: PageDir<[u32; PAGE_BYTES]>,
}

impl LastWriter {
    #[inline]
    fn record(&mut self, addr: Addr, width: MemWidth, ssn: u32) {
        let off = addr as usize % PAGE_BYTES;
        let page = self.pages.get_or_insert_with(addr >> PAGE_SHIFT, || Box::new([0; PAGE_BYTES]));
        page[off..off + width.bytes() as usize].fill(ssn);
    }

    #[inline]
    fn youngest(&self, addr: Addr, width: MemWidth) -> u32 {
        let off = addr as usize % PAGE_BYTES;
        match self.pages.get(addr >> PAGE_SHIFT) {
            Some(page) => {
                page[off..off + width.bytes() as usize].iter().copied().max().unwrap_or(0)
            }
            None => 0,
        }
    }
}

/// [`LOC_LINE_BYTES`]-sized lines per 4 KiB page.
const LINES_PER_PAGE: usize = PAGE_BYTES / LOC_LINE_BYTES as usize;
const LINE_SHIFT: u32 = LOC_LINE_BYTES.trailing_zeros();
const _: () = assert!(LOC_LINE_BYTES.is_power_of_two() && LINES_PER_PAGE >= 1);

/// One `u64` per [`LOC_LINE_BYTES`]-sized line of memory, zero until
/// set: the profiling pass's locality stamps and the capture pass's
/// access recency.
#[derive(Default)]
struct LineTable {
    pages: PageDir<[u64; LINES_PER_PAGE]>,
}

impl LineTable {
    /// Sets the line holding `addr` to `value`, returning the old value.
    #[inline]
    fn replace(&mut self, addr: Addr, value: u64) -> u64 {
        let page =
            self.pages.get_or_insert_with(addr >> PAGE_SHIFT, || Box::new([0; LINES_PER_PAGE]));
        std::mem::replace(&mut page[(addr >> LINE_SHIFT) as usize % LINES_PER_PAGE], value)
    }

    /// Every set line as `(value, line number)`, ascending by line.
    fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.pages.iter().flat_map(|(page, lines)| {
            let first = page << (PAGE_SHIFT - LINE_SHIFT);
            (first..).zip(lines).filter(|&(_, &v)| v != 0).map(|(line, &v)| (v, line))
        })
    }
}

/// Block-leader execution counts of the current interval, one counter
/// per static instruction.
struct LeaderCounts {
    counts: Vec<u32>,
}

impl LeaderCounts {
    fn new(text_len: usize) -> LeaderCounts {
        LeaderCounts { counts: vec![0; text_len] }
    }

    /// Counts one entry into the block at `pc`. A PC past the text
    /// segment is not counted: fetching it fails, and a failed pass
    /// returns no profile.
    #[inline]
    fn enter(&mut self, pc: Pc) {
        if let Some(count) = self.counts.get_mut(pc as usize) {
            *count += 1;
        }
    }

    /// The counted `(leader, count)` pairs, by PC; resets every count.
    fn take(&mut self) -> Vec<(Pc, u32)> {
        (0..)
            .zip(&mut self.counts)
            .filter(|(_, count)| **count > 0)
            .map(|(pc, count)| (pc, std::mem::take(count)))
            .collect()
    }
}

/// What a pass of the stepping loop ([`Emulator::drive`]) does with each
/// retired instruction besides updating the architectural state. Every
/// hook defaults to nothing. The loop is instantiated for each observer
/// and inlined into its pass, so no record of a retired instruction is
/// built in memory and read back.
trait Observer {
    /// A load read `value` (after extension) from the `width` bytes at
    /// `addr`.
    #[inline(always)]
    fn load(&mut self, _addr: Addr, _width: MemWidth, _value: Word) {}

    /// A store wrote the low `width` bytes of `value` at `addr`.
    #[inline(always)]
    fn store(&mut self, _addr: Addr, _width: MemWidth, _value: Word) {}

    /// A conditional branch at `pc` retired; execution continues at
    /// `next_pc`.
    #[inline(always)]
    fn branch(&mut self, _pc: Pc, _next_pc: Pc) {}

    /// Control left the fall-through path: a taken branch or a jump
    /// continues at `target`, which is not the next PC.
    #[inline(always)]
    fn redirect(&mut self, _target: Pc) {}
}

/// [`Emulator::run_insns`] observes nothing.
impl Observer for () {}

/// [`Emulator::step`] keeps the instruction's memory access.
impl Observer for Option<MemEvent> {
    #[inline(always)]
    fn load(&mut self, addr: Addr, _width: MemWidth, value: Word) {
        *self = Some(MemEvent { addr, value, is_store: false });
    }

    #[inline(always)]
    fn store(&mut self, addr: Addr, _width: MemWidth, value: Word) {
        *self = Some(MemEvent { addr, value, is_store: true });
    }
}

/// [`Emulator::run_with_trace_insns`]: each load's last writer and value.
#[derive(Default)]
struct Tracer {
    trace: OracleTrace,
    writers: LastWriter,
}

impl Observer for Tracer {
    #[inline(always)]
    fn load(&mut self, addr: Addr, width: MemWidth, value: Word) {
        self.trace.last_writer_ssn.push(self.writers.youngest(addr, width));
        self.trace.load_values.push(value);
    }

    #[inline(always)]
    fn store(&mut self, addr: Addr, width: MemWidth, _value: Word) {
        self.trace.store_count += 1;
        self.writers.record(addr, width, self.trace.store_count);
    }
}

/// [`Emulator::profile_intervals`]: the features of the current
/// interval.
struct Profiler {
    cur: IntervalFeatures,
    leaders: LeaderCounts,
    writers: LastWriter,
    store_count: u32,
    /// Every line ever touched, holding one more than the index of the
    /// last interval that touched it. A zero line is new to the run; a
    /// stale one is new to this interval.
    stamps: LineTable,
    /// One more than the current interval's index.
    stamp: u64,
}

impl Profiler {
    #[inline(always)]
    fn touch(&mut self, addr: Addr) {
        let last = self.stamps.replace(addr, self.stamp);
        if last == 0 {
            self.cur.new_lines += 1;
        }
        if last != self.stamp {
            self.cur.touched_lines += 1;
        }
    }
}

impl Observer for Profiler {
    #[inline(always)]
    fn load(&mut self, addr: Addr, width: MemWidth, _value: Word) {
        let ssn = self.writers.youngest(addr, width);
        self.cur.dep_buckets[dep_bucket(ssn, self.store_count)] += 1;
        self.touch(addr);
    }

    #[inline(always)]
    fn store(&mut self, addr: Addr, width: MemWidth, _value: Word) {
        self.store_count += 1;
        self.writers.record(addr, width, self.store_count);
        self.touch(addr);
    }

    #[inline(always)]
    fn redirect(&mut self, target: Pc) {
        // The target starts a new basic-block occurrence.
        self.leaders.enter(target);
    }
}

/// [`Emulator::capture_checkpoints`]: the warming hints.
struct Capture {
    /// Per line, the number of the access that last touched it.
    recency: LineTable,
    accesses: u64,
    /// The last `cap` conditional branches as `(pc, next_pc)`, oldest
    /// first.
    branches: VecDeque<(Pc, Pc)>,
    cap: usize,
}

impl Capture {
    #[inline(always)]
    fn touch(&mut self, addr: Addr) {
        self.accesses += 1;
        self.recency.replace(addr, self.accesses);
    }
}

impl Observer for Capture {
    #[inline(always)]
    fn load(&mut self, addr: Addr, _width: MemWidth, _value: Word) {
        self.touch(addr);
    }

    #[inline(always)]
    fn store(&mut self, addr: Addr, _width: MemWidth, _value: Word) {
        self.touch(addr);
    }

    #[inline(always)]
    fn branch(&mut self, pc: Pc, next_pc: Pc) {
        if self.branches.len() == self.cap {
            self.branches.pop_front();
        }
        self.branches.push_back((pc, next_pc));
    }
}

/// A functional (architecturally exact, untimed) emulator.
///
/// Serves two roles in the reproduction:
///
/// 1. **Golden reference** — every out-of-order model's final architectural
///    state must match the emulator's (checked by the integration tests).
/// 2. **Oracle pre-pass** — [`Emulator::run_with_trace_insns`] records
///    the exact store→load dependences, which drives the paper's
///    *Perfect* model.
///
/// # Example
///
/// ```
/// use dmdp_isa::{asm, Emulator, Reg};
/// let p = asm::assemble("li $1, 2\nli $2, 3\nmul $3, $1, $2\nhalt")?;
/// let mut emu = Emulator::new(&p);
/// emu.run(100)?;
/// assert_eq!(emu.reg(Reg::new(3)), 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Emulator {
    program: Program,
    regs: [Word; Reg::NUM_ARCH],
    pc: Pc,
    mem: SparseMem,
    halted: bool,
    result: RunResult,
}

impl Emulator {
    /// Creates an emulator with the program's initial memory image loaded
    /// and all registers zero.
    pub fn new(program: &Program) -> Emulator {
        Emulator {
            mem: program.initial_memory(),
            program: program.clone(),
            regs: [0; Reg::NUM_ARCH],
            pc: program.entry(),
            halted: false,
            result: RunResult::default(),
        }
    }

    /// Current value of an architectural register.
    ///
    /// # Panics
    ///
    /// Panics if `r` is a hidden (µarch-only) register.
    pub fn reg(&self, r: Reg) -> Word {
        assert!(!r.is_hidden(), "hidden registers have no architectural value");
        self.regs[r.index()]
    }

    /// A copy of all 32 architectural registers.
    pub fn regs(&self) -> [Word; Reg::NUM_ARCH] {
        self.regs
    }

    /// Current PC.
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Whether the machine has retired `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Read-only view of memory.
    pub fn mem(&self) -> &SparseMem {
        &self.mem
    }

    /// Convenience word read from memory.
    pub fn load_word(&self, addr: Addr) -> Word {
        self.mem.read_word(addr)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> RunResult {
        self.result
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns an error for a PC outside the text segment or an unaligned
    /// access. The emulator is left un-advanced on error.
    pub fn step(&mut self) -> Result<StepOutcome, EmuError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let pc = self.pc;
        let mut mem = None;
        if self.exec(&mut mem)? {
            return Ok(StepOutcome::Halted);
        }
        let insn = self.program.text()[pc as usize];
        let wrote = insn.dest().map(|rd| (rd, self.regs[rd.index()]));
        Ok(StepOutcome::Retired(RetiredEvent { pc, insn, wrote, mem, next_pc: self.pc }))
    }

    /// The value register `r` supplies as a source operand.
    #[inline(always)]
    fn src(&self, r: Reg) -> Word {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Executes the instruction at the PC of a running machine, reporting
    /// it to `obs`, and returns whether it was `halt`.
    ///
    /// # Errors
    ///
    /// As [`Emulator::step`], leaving the machine un-advanced.
    #[inline(always)]
    fn exec<O: Observer>(&mut self, obs: &mut O) -> Result<bool, EmuError> {
        let pc = self.pc;
        let insn = self.program.fetch(pc).ok_or(EmuError::PcOutOfRange { pc })?;
        let mut next_pc = pc + 1;
        let wrote = match insn.op {
            Op::Alu(op) => Some(op.apply(self.src(insn.rs), self.src(insn.rt))),
            Op::AluImm(op) => {
                let b = if op == AluOp::Lui { insn.imm as u32 & 0xFFFF } else { insn.imm as u32 };
                Some(op.apply(self.src(insn.rs), b))
            }
            Op::Load { width, signed } => {
                let addr = self.src(insn.rs).wrapping_add(insn.imm as u32);
                if !width.is_aligned(addr) {
                    return Err(EmuError::Unaligned { pc, addr });
                }
                let value = self.mem.read(addr, width, signed);
                self.result.loads += 1;
                obs.load(addr, width, value);
                Some(value)
            }
            Op::Store { width } => {
                let addr = self.src(insn.rs).wrapping_add(insn.imm as u32);
                if !width.is_aligned(addr) {
                    return Err(EmuError::Unaligned { pc, addr });
                }
                let value = self.src(insn.rt);
                self.mem.write(addr, width, value);
                self.result.stores += 1;
                obs.store(addr, width, value);
                None
            }
            Op::Branch(cond) => {
                if cond.taken(self.src(insn.rs), self.src(insn.rt)) {
                    next_pc = insn.imm as Pc;
                }
                self.result.branches += 1;
                obs.branch(pc, next_pc);
                None
            }
            Op::Jump => {
                next_pc = insn.imm as Pc;
                None
            }
            Op::JumpAndLink => {
                next_pc = insn.imm as Pc;
                Some(pc + 1)
            }
            Op::JumpReg => {
                next_pc = self.src(insn.rs);
                None
            }
            Op::JumpAndLinkReg => {
                next_pc = self.src(insn.rs);
                Some(pc + 1)
            }
            Op::Nop => None,
            Op::Halt => {
                self.halted = true;
                self.result.retired += 1;
                return Ok(true);
            }
        };
        if let Some(v) = wrote {
            if !insn.rd.is_zero() {
                self.regs[insn.rd.index()] = v;
            }
        }
        if next_pc != pc + 1 {
            obs.redirect(next_pc);
        }
        self.pc = next_pc;
        self.result.retired += 1;
        Ok(false)
    }

    /// The stepping loop every pass runs: executes instructions until
    /// `target` have retired in all or `halt` retires, reporting each to
    /// `obs`, and says which came first.
    ///
    /// # Errors
    ///
    /// Propagates [`Emulator::exec`] errors.
    #[inline(always)]
    fn drive<O: Observer>(&mut self, target: u64, obs: &mut O) -> Result<StopReason, EmuError> {
        if !self.halted {
            while self.result.retired < target {
                if self.exec(obs)? {
                    break;
                }
            }
        }
        Ok(if self.halted { StopReason::Halted } else { StopReason::BudgetExhausted })
    }

    /// Runs until `halt`, for at most `max_steps` instructions.
    ///
    /// # Errors
    ///
    /// Propagates [`Emulator::step`] errors, and returns
    /// [`EmuError::StepLimit`] if the program does not halt in time.
    pub fn run(&mut self, max_steps: u64) -> Result<RunResult, EmuError> {
        match self.run_insns(max_steps)? {
            StopReason::Halted => Ok(self.result),
            StopReason::BudgetExhausted => Err(EmuError::StepLimit { limit: max_steps }),
        }
    }

    /// [`Emulator::run_insns`] while recording the [`OracleTrace`] that
    /// the *Perfect* dependence predictor consumes, returned with the
    /// reason the run stopped. On budget exhaustion the trace covers the
    /// instructions run so far: a whole-program pre-pass requires
    /// [`StopReason::Halted`], while the sampling pipeline traces just
    /// one measurement window from a checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates [`Emulator::step`] errors.
    pub fn run_with_trace_insns(
        &mut self,
        n: u64,
    ) -> Result<(OracleTrace, StopReason), EmuError> {
        let mut tracer = Tracer::default();
        let stop = self.drive(self.result.retired.saturating_add(n), &mut tracer)?;
        Ok((tracer.trace, stop))
    }

    /// Runs at most `n` further instructions, reporting whether the
    /// program halted or the budget was exhausted first. Unlike
    /// [`Emulator::run`], budget exhaustion is a *normal outcome* here
    /// — the emulator stays resumable at the exact boundary, which is
    /// what the sampling fast-forward engine needs.
    ///
    /// # Errors
    ///
    /// Propagates [`Emulator::step`] errors (bad PC, unaligned access).
    pub fn run_insns(&mut self, n: u64) -> Result<StopReason, EmuError> {
        self.drive(self.result.retired.saturating_add(n), &mut ())
    }

    /// Captures the complete architectural state as a [`Checkpoint`].
    /// The warming hint is empty (cold caches) — only
    /// [`Emulator::capture_checkpoints`] observes the access recency
    /// needed to fill it.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            pc: self.pc,
            regs: self.regs,
            result: self.result,
            pages: self.mem.pages_sorted(),
            warm_lines: Vec::new(),
            warm_branches: Vec::new(),
        }
    }

    /// Rebuilds an emulator mid-run from a checkpoint of `program`.
    /// Resuming reproduces the original run bit-identically from the
    /// checkpoint onward (the emulator is deterministic and the
    /// checkpoint is the full architectural state).
    pub fn from_checkpoint(program: &Program, ckpt: &Checkpoint) -> Emulator {
        let mut mem = SparseMem::new();
        for (index, page) in &ckpt.pages {
            mem.install_page(*index, page);
        }
        Emulator {
            mem,
            program: program.clone(),
            regs: ckpt.regs,
            pc: ckpt.pc,
            halted: false,
            result: ckpt.result,
        }
    }

    /// Runs to completion, slicing execution into fixed-instruction
    /// intervals and collecting one [`IntervalFeatures`] vector per
    /// interval (sampled-simulation profiling pass).
    ///
    /// # Errors
    ///
    /// [`EmuError::StepLimit`] if the program does not halt within
    /// `max_steps` — a profile of a truncated run would silently bias
    /// every downstream weight, so it is refused outright. Step errors
    /// propagate.
    ///
    /// # Panics
    ///
    /// Panics if `interval_insns` is zero.
    pub fn profile_intervals(
        &mut self,
        interval_insns: u64,
        max_steps: u64,
    ) -> Result<IntervalProfile, EmuError> {
        assert!(interval_insns > 0, "interval length must be nonzero");
        let mut profile = IntervalProfile { interval_insns, ..IntervalProfile::default() };
        let mut p = Profiler {
            cur: IntervalFeatures::default(),
            leaders: LeaderCounts::new(self.program.len()),
            writers: LastWriter::default(),
            store_count: 0,
            stamps: LineTable::default(),
            stamp: 1,
        };
        let limit = self.result.retired.saturating_add(max_steps);
        loop {
            // Each interval's entry PC is a block leader.
            if p.cur.insns == 0 {
                p.leaders.enter(self.pc);
            }
            if self.result.retired == limit {
                return Err(EmuError::StepLimit { limit: max_steps });
            }
            let before = self.result.retired;
            let end = limit.min(before.saturating_add(interval_insns - p.cur.insns));
            let stop = self.drive(end, &mut p)?;
            p.cur.insns += self.result.retired - before;
            if stop == StopReason::Halted || p.cur.insns == interval_insns {
                if p.cur.insns > 0 {
                    p.cur.bb_counts = p.leaders.take();
                    profile.intervals.push(std::mem::take(&mut p.cur));
                    p.stamp += 1;
                }
                if stop == StopReason::Halted {
                    profile.result = self.result;
                    return Ok(profile);
                }
            }
        }
    }

    /// Re-runs the program from the current state, capturing an
    /// architectural checkpoint at each requested position.
    /// `boundaries` are absolute retired-instruction counts
    /// (ascending, not necessarily interval-aligned — warmup windows
    /// may start mid-interval); boundary `b` is the state after
    /// exactly `b` retired instructions, so boundary 0 is the current
    /// state. If the program halts before a later boundary, the
    /// halted state is captured (callers derive boundaries from a
    /// profile of the same program, so this only happens for the
    /// boundary at the very end).
    ///
    /// # Errors
    ///
    /// Propagates [`Emulator::step`] errors.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` is not ascending or a boundary lies
    /// behind instructions already retired.
    pub fn capture_checkpoints(
        &mut self,
        boundaries: &[u64],
        warm_cap: usize,
    ) -> Result<Vec<Checkpoint>, EmuError> {
        assert!(boundaries.windows(2).all(|w| w[0] < w[1]), "boundaries must ascend");
        let mut ckpts = Vec::with_capacity(boundaries.len());
        // Warming-hint state: per-line access recency (each checkpoint
        // carries the `warm_cap` most recently touched lines, LRU→MRU)
        // and the trailing window of conditional-branch outcomes (the
        // last `warm_cap` of them, oldest first).
        let mut c = Capture {
            recency: LineTable::default(),
            accesses: 0,
            branches: VecDeque::with_capacity(warm_cap),
            cap: warm_cap,
        };
        for &target in boundaries {
            assert!(
                target >= self.result.retired,
                "boundary {target} behind the {} instructions already retired",
                self.result.retired
            );
            self.drive(target, &mut c)?;
            let mut ckpt = self.checkpoint();
            let mut lines: Vec<(u64, u32)> = c.recency.iter().collect();
            lines.sort_unstable();
            if lines.len() > warm_cap {
                lines.drain(..lines.len() - warm_cap);
            }
            ckpt.warm_lines = lines.into_iter().map(|(_, l)| l).collect();
            ckpt.warm_branches = c.branches.iter().copied().collect();
            ckpts.push(ckpt);
        }
        Ok(ckpts)
    }
}

impl fmt::Debug for Emulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Emulator")
            .field("program", &self.program.name())
            .field("pc", &self.pc)
            .field("halted", &self.halted)
            .field("retired", &self.result.retired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_asm(src: &str) -> Emulator {
        let p = assemble(src).unwrap();
        let mut e = Emulator::new(&p);
        e.run(1_000_000).unwrap();
        e
    }

    #[test]
    fn arithmetic_loop() {
        // sum = 1 + 2 + ... + 10
        let e = run_asm(
            r#"
            li   $1, 10
            li   $2, 0
        top:
            add  $2, $2, $1
            addi $1, $1, -1
            bgtz $1, top
            halt
        "#,
        );
        assert_eq!(e.reg(Reg::new(2)), 55);
        assert!(e.is_halted());
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let e = run_asm(
            r#"
                .data
        buf:    .space 16
                .text
            lui  $8, %hi(buf)
            ori  $8, $8, %lo(buf)
            li   $1, -2
            sw   $1, 0($8)
            lw   $2, 0($8)
            lh   $3, 0($8)
            lhu  $4, 0($8)
            lb   $5, 0($8)
            lbu  $6, 0($8)
            halt
        "#,
        );
        assert_eq!(e.reg(Reg::new(2)), -2i32 as u32);
        assert_eq!(e.reg(Reg::new(3)), -2i32 as u32);
        assert_eq!(e.reg(Reg::new(4)), 0xFFFE);
        assert_eq!(e.reg(Reg::new(5)), -2i32 as u32);
        assert_eq!(e.reg(Reg::new(6)), 0xFE);
    }

    #[test]
    fn jal_jr_call_return() {
        let e = run_asm(
            r#"
            jal  func
            li   $2, 7
            halt
        func:
            li   $1, 5
            jr   $31
        "#,
        );
        assert_eq!(e.reg(Reg::new(1)), 5);
        assert_eq!(e.reg(Reg::new(2)), 7);
    }

    #[test]
    fn zero_register_ignores_writes() {
        let e = run_asm("addi $0, $0, 99\nhalt");
        assert_eq!(e.reg(Reg::ZERO), 0);
    }

    #[test]
    fn step_limit_error() {
        let p = assemble("top: j top\nhalt").unwrap();
        let mut e = Emulator::new(&p);
        assert_eq!(e.run(100), Err(EmuError::StepLimit { limit: 100 }));
    }

    #[test]
    fn pc_out_of_range_error() {
        let p = assemble("nop\nnop").unwrap();
        let mut e = Emulator::new(&p);
        let r = e.run(100);
        assert_eq!(r, Err(EmuError::PcOutOfRange { pc: 2 }));
    }

    #[test]
    fn unaligned_access_error() {
        let p = assemble("li $1, 1\nlw $2, 0($1)\nhalt").unwrap();
        let mut e = Emulator::new(&p);
        assert!(matches!(e.run(10), Err(EmuError::Unaligned { addr: 1, .. })));
    }

    #[test]
    fn retired_event_contents() {
        let p = assemble("li $1, 3\nsw $1, 0x10000($0)\nhalt").unwrap();
        let mut e = Emulator::new(&p);
        let ev = match e.step().unwrap() {
            StepOutcome::Retired(ev) => ev,
            _ => panic!(),
        };
        assert_eq!(ev.wrote, Some((Reg::new(1), 3)));
        assert_eq!(ev.next_pc, 1);
        let ev = match e.step().unwrap() {
            StepOutcome::Retired(ev) => ev,
            _ => panic!(),
        };
        assert_eq!(ev.mem, Some(MemEvent { addr: 0x10000, value: 3, is_store: true }));
    }

    #[test]
    fn oracle_trace_tracks_last_writer() {
        let p = assemble(
            r#"
                .data
        a:      .word 0
        b:      .word 0
                .text
            li   $1, 1
            lui  $8, %hi(a)
            ori  $8, $8, %lo(a)
            lw   $2, 0($8)      # load 0: never written -> ssn 0
            sw   $1, 0($8)      # store 1
            lw   $3, 0($8)      # load 1: last writer store 1
            sw   $1, 4($8)      # store 2
            lw   $4, 0($8)      # load 2: still store 1
            lw   $5, 4($8)      # load 3: store 2
            sw   $1, 0($8)      # store 3 (silent)
            lw   $6, 0($8)      # load 4: store 3
            halt
        "#,
        )
        .unwrap();
        let mut e = Emulator::new(&p);
        let (trace, stop) = e.run_with_trace_insns(1000).unwrap();
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(trace.store_count, 3);
        assert_eq!(trace.last_writer_ssn, vec![0, 1, 1, 2, 3]);
        assert_eq!(trace.load_values, vec![0, 1, 1, 1, 1]);
    }

    #[test]
    fn oracle_trace_partial_word_overlap() {
        let p = assemble(
            r#"
                .data
        a:      .word 0
                .text
            li   $1, 0x7F
            lui  $8, %hi(a)
            ori  $8, $8, %lo(a)
            sw   $1, 0($8)      # store 1 writes bytes 0..4
            sb   $1, 2($8)      # store 2 writes byte 2
            lhu  $2, 0($8)      # load 0 reads bytes 0..2 -> store 1
            lhu  $3, 2($8)      # load 1 reads bytes 2..4 -> store 2
            halt
        "#,
        )
        .unwrap();
        let mut e = Emulator::new(&p);
        let (trace, stop) = e.run_with_trace_insns(1000).unwrap();
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(trace.last_writer_ssn, vec![1, 2]);
        assert_eq!(trace.load_values, vec![0x7F, 0x7F]);
    }

    #[test]
    fn oracle_trace_partial_word_overlap_at_a_page_end() {
        // The same overlaps on both sides of the 0x20000 page boundary:
        // each access touches one page, and no write may bleed into the
        // neighbouring page.
        let p = assemble(
            r#"
            li   $1, 0x7F
            lui  $8, 2
            sw   $1, -4($8)     # store 1 writes 0x1FFFC..0x20000
            sb   $1, 0($8)      # store 2 writes byte 0x20000
            lhu  $2, -2($8)     # load 0 reads 0x1FFFE..0x20000 -> store 1
            lbu  $3, 0($8)      # load 1 -> store 2
            lw   $4, 0($8)      # load 2: byte 0 from store 2, rest unwritten
            sb   $1, -1($8)     # store 3 writes byte 0x1FFFF
            lhu  $5, -2($8)     # load 3 -> store 3
            lw   $6, -4($8)     # load 4 -> store 3
            lhu  $7, -4($8)     # load 5 -> store 1
            lw   $9, 4($8)      # load 6: never written
            sh   $1, 2($8)      # store 4 writes 0x20002..0x20004
            lw   $10, 0($8)     # load 7 -> store 4
            lbu  $11, 1($8)     # load 8: byte 0x20001 never written
            halt
        "#,
        )
        .unwrap();
        let mut e = Emulator::new(&p);
        let (trace, stop) = e.run_with_trace_insns(1000).unwrap();
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(trace.store_count, 4);
        assert_eq!(trace.last_writer_ssn, vec![1, 2, 2, 3, 3, 1, 0, 4, 0]);
        assert_eq!(
            trace.load_values,
            vec![0, 0x7F, 0x7F, 0x7F00, 0x7F00_007F, 0x7F, 0, 0x007F_007F, 0]
        );
    }

    #[test]
    fn last_writer_matches_a_byte_model_at_page_edges() {
        let mut prng = dmdp_prng::Prng::new(0x1A57_3217);
        let mut writers = LastWriter::default();
        let mut model: std::collections::BTreeMap<Addr, u32> = Default::default();
        // Page boundaries to straddle, including both ends of the
        // address space and the first page of the second directory
        // table.
        let edges: [Addr; 6] = [0, 0x1000, 0x2000, 0x0001_0000, 0x0040_0000, 0xFFFF_F000];
        let widths = [MemWidth::Byte, MemWidth::Half, MemWidth::Word];
        let mut ssn = 0;
        for step in 0..20_000 {
            let width = widths[prng.index(3)];
            let offset = prng.range_i32(-8, 7);
            let addr =
                edges[prng.index(edges.len())].wrapping_add(offset as u32) & !(width.bytes() - 1);
            if prng.flip() {
                ssn += 1;
                writers.record(addr, width, ssn);
                for i in 0..width.bytes() {
                    model.insert(addr + i, ssn);
                }
            } else {
                let want = (0..width.bytes())
                    .map(|i| model.get(&(addr + i)).copied().unwrap_or(0))
                    .max()
                    .unwrap();
                assert_eq!(
                    writers.youngest(addr, width),
                    want,
                    "step {step}: {width} at {addr:#x}"
                );
            }
        }
        // Exactly the written pages are resident.
        let mut written: Vec<u32> = model.keys().map(|a| a >> PAGE_SHIFT).collect();
        written.dedup();
        let resident: Vec<u32> = writers.pages.iter().map(|(i, _)| i).collect();
        assert_eq!(resident, written);
        assert_eq!(writers.pages.len(), written.len());
    }

    #[test]
    fn step_limit_is_distinct_from_halt() {
        // Regression: budget exhaustion must be `run`'s *named*
        // `EmuError::StepLimit`, never a silent halt-like return — and
        // the bounded entry points must report the distinction as a
        // normal outcome.
        let looping = assemble("top: j top\nhalt").unwrap();
        let halting = assemble("nop\nnop\nhalt").unwrap();

        let mut e = Emulator::new(&looping);
        assert_eq!(e.run(50), Err(EmuError::StepLimit { limit: 50 }));
        assert!(!e.is_halted());
        let mut e = Emulator::new(&looping);
        let traced = e.run_with_trace_insns(50).map(|(_, stop)| stop);
        assert_eq!(traced, Ok(StopReason::BudgetExhausted));
        let mut e = Emulator::new(&looping);
        assert_eq!(e.run_insns(50), Ok(StopReason::BudgetExhausted));
        assert_eq!(e.stats().retired, 50);
        // Resumable at the exact boundary.
        assert_eq!(e.run_insns(25), Ok(StopReason::BudgetExhausted));
        assert_eq!(e.stats().retired, 75);

        let mut e = Emulator::new(&halting);
        assert_eq!(e.run_insns(50), Ok(StopReason::Halted));
        assert!(e.is_halted());
        assert_eq!(e.stats().retired, 3);
        let mut e = Emulator::new(&halting);
        // Budget landing exactly on the halt still reports Halted.
        assert_eq!(e.run_insns(3), Ok(StopReason::Halted));
        assert_eq!(Emulator::new(&halting).run(3).map(|r| r.retired), Ok(3));
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let src = r#"
                .data
        buf:    .space 64
                .text
            li   $1, 12
            lui  $8, %hi(buf)
            ori  $8, $8, %lo(buf)
        top:
            sw   $1, 0($8)
            lw   $2, 0($8)
            add  $3, $3, $2
            addi $1, $1, -1
            bgtz $1, top
            halt
        "#;
        let p = assemble(src).unwrap();
        let mut full = Emulator::new(&p);
        let full_result = full.run(1_000_000).unwrap();

        let mut front = Emulator::new(&p);
        assert_eq!(front.run_insns(20), Ok(StopReason::BudgetExhausted));
        let ckpt = front.checkpoint();
        assert_eq!(ckpt.result.retired, 20);
        // Serialize → restore → resume: bit-identical final state.
        let restored = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(restored, ckpt);
        let mut resumed = Emulator::from_checkpoint(&p, &restored);
        let resumed_result = resumed.run(1_000_000).unwrap();
        assert_eq!(resumed_result, full_result);
        assert_eq!(resumed.regs(), full.regs());
        assert_eq!(resumed.pc(), full.pc());
    }

    #[test]
    fn profile_intervals_slices_and_counts() {
        let src = r#"
            li   $1, 10
        top:
            sw   $1, 0x10000($0)
            lw   $2, 0x10000($0)
            addi $1, $1, -1
            bgtz $1, top
            halt
        "#;
        let p = assemble(src).unwrap();
        let mut e = Emulator::new(&p);
        let profile = e.profile_intervals(16, 1_000_000).unwrap();
        let total: u64 = profile.intervals.iter().map(|iv| iv.insns).sum();
        assert_eq!(total, profile.result.retired);
        assert_eq!(profile.result.retired, 1 + 10 * 4 + 1);
        assert_eq!(profile.intervals.len(), 3); // 16 + 16 + 10
        assert_eq!(profile.intervals[2].insns, 10);
        for iv in &profile.intervals[..2] {
            assert_eq!(iv.insns, 16);
            assert!(!iv.bb_counts.is_empty());
        }
        // The loop's loads all read the store from the same iteration:
        // distance 0, bucket 0 — except the first load of interval 0 is
        // also bucket 0 (its store precedes it immediately).
        let loads: u32 = profile.intervals.iter().map(|iv| iv.dep_buckets[0]).sum();
        assert_eq!(loads as u64, profile.result.loads);
        // A looping program must refuse to profile past the budget.
        let looping = assemble("top: j top\nhalt").unwrap();
        let mut e = Emulator::new(&looping);
        assert_eq!(
            e.profile_intervals(8, 100).unwrap_err(),
            EmuError::StepLimit { limit: 100 }
        );
    }

    #[test]
    fn capture_checkpoints_at_boundaries() {
        let src = r#"
            li   $1, 40
        top:
            sw   $1, 0x10000($0)
            addi $1, $1, -1
            bgtz $1, top
            halt
        "#;
        let p = assemble(src).unwrap();
        let mut e = Emulator::new(&p);
        let ckpts = e.capture_checkpoints(&[0, 30, 75], 4096).unwrap();
        assert_eq!(ckpts.len(), 3);
        assert_eq!(ckpts[0].result.retired, 0);
        assert_eq!(ckpts[1].result.retired, 30);
        assert_eq!(ckpts[2].result.retired, 75);
        // Each checkpoint resumes to the same final state.
        let mut full = Emulator::new(&p);
        let want = full.run(1_000_000).unwrap();
        for c in &ckpts {
            let mut r = Emulator::from_checkpoint(&p, c);
            assert_eq!(r.run(1_000_000).unwrap(), want);
            assert_eq!(r.regs(), full.regs());
        }
    }

    #[test]
    fn stats_count_classes() {
        let e = run_asm(
            r#"
            li  $1, 2
        top:
            sw  $1, 0x10000($0)
            lw  $2, 0x10000($0)
            addi $1, $1, -1
            bgtz $1, top
            halt
        "#,
        );
        let s = e.stats();
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 2);
        assert_eq!(s.branches, 2);
        assert_eq!(s.retired, 1 + 2 * 4 + 1);
    }
}
