//! The out-of-order pipeline shared by all four communication models.
//!
//! One cycle advances the machine through its stages in reverse pipeline
//! order (commit → retire → writeback → issue → rename → fetch), so a
//! value produced in writeback wakes its consumer in issue the same
//! cycle, giving back-to-back execution of dependent single-cycle µops.

mod baseline;
mod exec;
mod fetch;
mod recover;
mod rename;
mod retire;
mod sched;

use std::collections::VecDeque;
use std::sync::Arc;

use dmdp_energy::Event;
use dmdp_isa::{
    Checkpoint, Emulator, OracleTrace, Pc, Program, Reg, SparseMem, StopReason, Word,
};
use dmdp_mem::{MemHierarchy, StoreBuffer, Tlb};
use dmdp_predict::{
    BranchPredictor, DistancePredictor, StoreSets, Tssbf, TssbfHit,
};

use crate::config::{CommModel, CoreConfig};
use crate::plan::PlanCache;
use crate::probe::{Occupancy, Probe, ProbeReport};
use crate::regfile::RegFile;
use crate::rob::{BranchInfo, Rob, SeqNum};
use crate::srb::StoreRegisterBuffer;
use crate::stats::SimStats;

pub(crate) use baseline::StoreQueue;

/// Error terminating a simulation abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle limit was reached before `halt` retired (livelock guard).
    CycleLimit {
        /// The limit that was exhausted.
        limit: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit { limit } => {
                write!(f, "cycle limit {limit} reached before halt")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// An instruction sitting in the decode queue, with its fetch-time
/// prediction state. The instruction itself is not carried — rename
/// looks its static decode plan up by `pc` in the shared [`PlanCache`].
#[derive(Debug, Clone)]
pub(crate) struct Fetched {
    pub pc: Pc,
    pub branch: Option<BranchInfo>,
    /// Global branch history captured before this instruction's own
    /// prediction — the snapshot both the path-sensitive distance
    /// predictor and history repair use.
    pub fetch_history: u32,
    /// Cycle the instruction was fetched (probe bookkeeping only; no
    /// timing decision reads it).
    pub fetch_cycle: u64,
}

/// Retire-time load verification in progress (paper §IV-A c: the
/// re-execution is "not issued until the store buffer is drained").
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerifyState {
    pub load_seq: SeqNum,
    pub actual: TssbfHit,
    pub phase: VerifyPhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VerifyPhase {
    /// Waiting for the store buffer to drain.
    WaitDrain,
    /// Cache re-read in flight, completing at the cycle.
    Reading(u64),
}

/// The pipeline: one simulated core running one program under one
/// [`CommModel`].
pub struct Pipeline {
    pub(crate) cfg: CoreConfig,
    pub(crate) program: Arc<Program>,
    // Static decode plans, one per text PC (built here or shared in by a
    // campaign runner).
    pub(crate) plans: Arc<PlanCache>,
    pub(crate) cycle: u64,
    // Register state.
    pub(crate) rf: RegFile,
    pub(crate) rob: Rob,
    // Event-driven scheduler (ready lists, wake registrations, completion
    // calendar).
    pub(crate) sched: sched::Scheduler,
    pub(crate) retry: Vec<SeqNum>,
    // Front end.
    pub(crate) decode_q: VecDeque<Fetched>,
    pub(crate) fetch_pc: Pc,
    pub(crate) fetch_stall_until: u64,
    pub(crate) fetch_stopped: bool,
    pub(crate) halted: bool,
    // Memory.
    pub(crate) data: SparseMem,
    pub(crate) mem: MemHierarchy,
    pub(crate) sb: StoreBuffer,
    pub(crate) tlb: Tlb,
    // Predictors and SQ-free structures.
    pub(crate) bp: BranchPredictor,
    pub(crate) dp: DistancePredictor,
    pub(crate) tssbf: Tssbf,
    pub(crate) ss: StoreSets,
    pub(crate) srb: StoreRegisterBuffer,
    pub(crate) sq: StoreQueue,
    // Store sequence numbers (paper Fig. 6).
    pub(crate) ssn_rename: u32,
    pub(crate) ssn_retire: u32,
    pub(crate) ssn_commit: u32,
    // Oracle (Perfect model). Arc-shared so a batch of Perfect-model
    // variant lanes pays the functional pre-pass once.
    pub(crate) oracle: Option<Arc<OracleTrace>>,
    pub(crate) next_load_idx: u64,
    // Retire-time verification in progress.
    pub(crate) verify: Option<VerifyState>,
    // Address of the most recently retired store (coherence stand-in
    // target).
    pub(crate) last_commit_addr: Option<dmdp_isa::Addr>,
    // Reusable store-buffer commit drain, emptied after each use so the
    // hot loop never allocates.
    pub(crate) commit_buf: Vec<u32>,
    // Measurements.
    pub(crate) stats: SimStats,
    // Resource-demand high-water marks for the batch engine's
    // never-bound variant deduplication (see `crate::batch`).
    pub(crate) hw: crate::batch::HwDemand,
    // Observability sinks (no-op by default; see `crate::probe`).
    pub(crate) probe: Probe,
    // Co-simulation against the functional emulator (tests).
    pub(crate) cosim: Option<Emulator>,
}

impl Pipeline {
    /// Builds a pipeline for `program` under `cfg`, with its own
    /// [`PlanCache`] (counted in `stats.plan.builds`). For the Perfect
    /// model this runs the functional oracle pre-pass (bounded by
    /// `cfg.max_cycles` emulated instructions).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the oracle pre-pass
    /// fails (the program must halt).
    pub fn new(cfg: CoreConfig, program: &Program) -> Pipeline {
        let program = Arc::new(program.clone());
        let plans = PlanCache::shared(&program);
        let built = plans.len() as u64;
        let mut p = Pipeline::new_planned(cfg, program, plans);
        p.stats.plan.builds = built;
        p
    }

    /// [`Pipeline::new`] over a shared program image and a prebuilt plan
    /// cache, so every job of a workload shares one decode-plan table
    /// alongside the image (`stats.plan.builds` stays zero: nothing was
    /// built here).
    ///
    /// # Panics
    ///
    /// As [`Pipeline::new`]; additionally if `plans` was not built from
    /// `program`.
    pub fn new_planned(cfg: CoreConfig, program: Arc<Program>, plans: Arc<PlanCache>) -> Pipeline {
        let oracle = Pipeline::build_oracle(&cfg, &program);
        Pipeline::new_planned_with_oracle(cfg, program, plans, oracle)
    }

    /// The Perfect model's functional pre-pass for `program`, bounded by
    /// `cfg.max_cycles` emulated instructions; `None` for every other
    /// model. Exposed so batch drivers can run it once and share the
    /// trace across many variant lanes of the same `max_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if the pre-pass fails (the program must halt).
    pub fn build_oracle(cfg: &CoreConfig, program: &Program) -> Option<Arc<OracleTrace>> {
        let (trace, stop) = Pipeline::oracle_pass(cfg, || Emulator::new(program), cfg.max_cycles)?;
        assert_eq!(stop, StopReason::Halted, "oracle pre-pass must complete");
        Some(trace)
    }

    /// The Perfect model's functional pre-pass resumed from `ckpt`
    /// instead of the program entry, bounded by `insns` further
    /// instructions; `None` for every other model. The trace's dynamic
    /// load indices and SSNs start at zero, matching a pipeline seeded
    /// from the same checkpoint (its `next_load_idx`/`ssn_*` counters
    /// also start at zero). The bound need only cover the measurement
    /// window plus in-flight slack — loads past the trace end degrade
    /// to unpredicated issue, exactly like wrong-path overruns.
    ///
    /// # Errors / Panics
    ///
    /// Panics if the functional replay faults (a valid checkpoint of a
    /// valid program cannot).
    pub fn build_oracle_from_checkpoint(
        cfg: &CoreConfig,
        program: &Program,
        ckpt: &Checkpoint,
        insns: u64,
    ) -> Option<Arc<OracleTrace>> {
        let emu = || Emulator::from_checkpoint(program, ckpt);
        Pipeline::oracle_pass(cfg, emu, insns).map(|(trace, _)| trace)
    }

    /// The Perfect model's functional pass over at most `insns`
    /// instructions of the emulator `emu` builds, and why it stopped;
    /// `None`, building no emulator, for every other model. Panics if
    /// the emulation faults.
    fn oracle_pass(
        cfg: &CoreConfig,
        emu: impl FnOnce() -> Emulator,
        insns: u64,
    ) -> Option<(Arc<OracleTrace>, StopReason)> {
        if cfg.comm != CommModel::Perfect {
            return None;
        }
        let (trace, stop) = emu().run_with_trace_insns(insns).expect("oracle pass must not fault");
        Some((Arc::new(trace), stop))
    }

    /// [`Pipeline::new_planned`] with the oracle pre-pass (or `None`)
    /// supplied by the caller instead of computed here.
    ///
    /// # Panics
    ///
    /// As [`Pipeline::new_planned`].
    pub fn new_planned_with_oracle(
        cfg: CoreConfig,
        program: Arc<Program>,
        plans: Arc<PlanCache>,
        oracle: Option<Arc<OracleTrace>>,
    ) -> Pipeline {
        cfg.validate();
        assert_eq!(plans.len(), program.len(), "plan cache must match the program");
        Pipeline {
            rf: RegFile::new(cfg.phys_regs),
            rob: Rob::new(cfg.rob_entries),
            sched: sched::Scheduler::default(),
            retry: Vec::new(),
            decode_q: VecDeque::new(),
            fetch_pc: program.entry(),
            fetch_stall_until: 0,
            fetch_stopped: false,
            halted: false,
            data: program.initial_memory(),
            mem: MemHierarchy::new(cfg.mem),
            sb: StoreBuffer::new(cfg.store_buffer_entries, cfg.consistency),
            tlb: Tlb::new(cfg.mem.tlb),
            bp: BranchPredictor::new(cfg.branch),
            dp: DistancePredictor::new(cfg.distance),
            tssbf: Tssbf::new(cfg.tssbf),
            ss: StoreSets::new(cfg.store_sets),
            srb: StoreRegisterBuffer::new(),
            sq: StoreQueue::new(),
            ssn_rename: 0,
            ssn_retire: 0,
            ssn_commit: 0,
            oracle,
            next_load_idx: 0,
            verify: None,
            last_commit_addr: None,
            commit_buf: Vec::new(),
            stats: SimStats::default(),
            hw: crate::batch::HwDemand::default(),
            cycle: 0,
            program,
            plans,
            probe: Probe::default(),
            cosim: None,
            cfg,
        }
    }

    /// Attaches probe sinks (tracer/sampler). The probed run produces
    /// bit-identical [`SimStats`] to an unprobed one — probes observe,
    /// never perturb (`tests/golden_stats.rs` gates this).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Enables lock-step checking against the functional emulator: every
    /// retired instruction's PC, register result and memory effect are
    /// compared, panicking on divergence. Test-only (slows simulation).
    pub fn enable_cosim(&mut self) {
        self.cosim = Some(Emulator::new(&self.program));
    }

    /// Runs to `halt`, returning the collected statistics.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] if the program does not halt within
    /// `cfg.max_cycles` cycles.
    pub fn run(mut self) -> Result<SimStats, SimError> {
        self.run_loop()?;
        Ok(self.stats)
    }

    /// [`Pipeline::run`] returning the probe's collected artifacts
    /// alongside the statistics (attach sinks with
    /// [`Pipeline::set_probe`] first).
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run`].
    pub fn run_probed(mut self) -> Result<(SimStats, ProbeReport), SimError> {
        self.run_loop()?;
        let report = std::mem::take(&mut self.probe).finish();
        Ok((self.stats, report))
    }

    /// Overwrites the architectural state (PC, register values, memory
    /// image) with a functional-emulator checkpoint, so the first
    /// fetched instruction is the one after the checkpoint boundary.
    /// The checkpoint's warming hint (`warm_lines`, the lines most
    /// recently touched before the boundary, LRU→MRU) is replayed into
    /// the cache hierarchy and TLB — without it, every sampled interval
    /// would start with a compulsory-miss storm the uncheckpointed run
    /// never had, and the detailed warmup would need to re-walk the
    /// workload's whole resident footprint to repair it. Predictors,
    /// ROB and store buffer stay cold — the sampling pipeline warms
    /// those by running a configurable number of warmup instructions
    /// before measuring (they train orders of magnitude faster than a
    /// cache fills).
    ///
    /// # Panics
    ///
    /// Panics if any cycle has already been simulated.
    pub fn seed_checkpoint(&mut self, ckpt: &Checkpoint) {
        assert_eq!(self.cycle, 0, "seed_checkpoint must precede the first cycle");
        self.fetch_pc = ckpt.pc;
        let mut data = SparseMem::new();
        for (index, bytes) in &ckpt.pages {
            data.install_page(*index, bytes);
        }
        self.data = data;
        // The fresh RAT maps logical i to preg i with value 0; overwrite
        // the programmer-visible registers in place ($0 stays 0 in any
        // valid checkpoint, the hidden assembler temporaries stay 0 as
        // on a cold start).
        for (i, &value) in ckpt.regs.iter().enumerate() {
            let p = self.rf.rat(Reg::new(i as u8));
            self.rf.write(p, value, 0);
        }
        for &line in &ckpt.warm_lines {
            let addr = line * dmdp_isa::checkpoint::LOC_LINE_BYTES;
            self.mem.warm(addr);
            self.tlb.warm(addr);
        }
        for &(pc, next_pc) in &ckpt.warm_branches {
            self.bp.warm(pc, next_pc != pc + 1, next_pc);
        }
    }

    /// Runs until at least `target` architectural instructions have
    /// retired (or the program halts), *without* the end-of-run finalize
    /// pass — interval measurement reads `(cycle, retired)` deltas
    /// between calls and never needs quiesced-register accounting.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] as [`Pipeline::run`].
    pub fn run_to_retired(&mut self, target: u64) -> Result<(), SimError> {
        while !self.halted && self.stats.retired_insns < target {
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::CycleLimit { limit: self.cfg.max_cycles });
            }
            self.step_cycle();
        }
        Ok(())
    }

    /// Cycles simulated so far (interval measurement bookkeeping).
    pub fn cycles_so_far(&self) -> u64 {
        self.cycle
    }

    /// Architectural instructions retired so far.
    pub fn retired_so_far(&self) -> u64 {
        self.stats.retired_insns
    }

    /// Whether `halt` has retired.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Runs to `halt` and closes the statistics: the one loop behind
    /// solo runs and batch lanes alike.
    pub(crate) fn run_loop(&mut self) -> Result<(), SimError> {
        self.run_to_retired(u64::MAX)?;
        self.finalize();
        Ok(())
    }

    /// Advances the machine one cycle.
    pub(crate) fn step_cycle(&mut self) {
        self.commit_stage();
        self.retire_stage();
        if self.halted {
            self.cycle += 1;
            self.stats.cycles = self.cycle;
            return;
        }
        self.writeback_stage();
        self.issue_stage();
        self.rename_stage();
        self.fetch_stage();
        self.cycle += 1;
        if self.probe.sample_due(self.cycle) {
            self.probe_take_sample();
        }
    }

    /// Closes the sample window ending now (end-of-cycle occupancy
    /// snapshot plus event deltas since the previous window).
    fn probe_take_sample(&mut self) {
        let occ = Occupancy {
            rob: self.rob.len(),
            iq: self.sched.iq_len,
            ready: self.sched.ready_len(),
            sb: self.sb.occupancy(),
        };
        self.probe.take_sample(self.cycle, &self.stats, occ);
    }

    /// Commit: drains the store buffer into the cache, advances
    /// `SSN_commit`, releases committed stores' registers, and (RMO)
    /// invalidates their Store Register Buffer entries. When the
    /// coherence stand-in is enabled, also injects an external line
    /// invalidation (§IV-F).
    fn commit_stage(&mut self) {
        if let Some(every) = self.cfg.coherence_invalidate_every {
            if self.cycle > 0 && self.cycle.is_multiple_of(every) {
                if let Some(addr) = self.last_commit_addr {
                    let line = self.cfg.mem.l1d.line_bytes;
                    self.mem.invalidate(addr);
                    // Invalidation messages carry only the line address:
                    // every word of the line re-arms the T-SSBF with
                    // SSN_commit + 1 so earlier-executed loads re-execute.
                    self.tssbf.invalidate_line(addr & !(line - 1), line, self.ssn_commit);
                    self.stats.coherence_invalidations += 1;
                }
            }
        }
        // Drain finished stores into the reusable scratch buffer — the
        // commit stage runs every cycle and must not allocate.
        let mut committed = std::mem::take(&mut self.commit_buf);
        self.sb.tick(self.cycle, &mut self.mem, &mut self.data, &mut committed);
        for &ssn in &committed {
            debug_assert!(ssn > self.ssn_commit, "SSN_commit must advance monotonically");
            // Coalescing can skip SSNs: release every store in the gap.
            while let Some(e) = self.srb.pop_front_through(ssn) {
                // The store "executes when it is committed": its
                // consumer references drop now, possibly freeing the
                // registers (paper §IV-B a).
                self.rf.drop_consumer(e.addr_preg);
                if let Some(d) = e.data_preg {
                    self.rf.drop_consumer(d);
                }
            }
            self.ssn_commit = ssn;
            self.stats.energy.record(Event::CacheWrite, 1);
            self.stats.energy.record(Event::StoreBufferOp, 1);
        }
        committed.clear();
        self.commit_buf = committed;
        // Delayed loads gated on `SSN_commit >= ssn_byp` become eligible
        // the same cycle the store commits (issue runs later this cycle).
        self.sched_drain_ssn();
    }

    /// Reads a source register value, treating `None` (logical `$0`) as
    /// the constant zero.
    #[inline]
    pub(crate) fn src_val(&self, src: Option<crate::regfile::PregId>) -> Word {
        match src {
            Some(p) => self.rf.read(p),
            None => 0,
        }
    }

    pub(crate) fn finalize(&mut self) {
        // Close the sampler's final (possibly partial) window.
        if self.probe.sample_pending(self.cycle) {
            self.probe_take_sample();
        }
        // At halt nothing younger than the halt µop exists, so every
        // physical register must be accounted for by the RAT, by a
        // pending store-buffer entry's consumer references, or be free —
        // a leak or double-free in the producer/consumer protocol
        // (paper §IV-B a) panics here on every run.
        self.rf.check_quiesced();
        self.stats.cycles = self.cycle;
        self.stats.mem = self.mem.stats();
        self.stats.coalesced_stores = self.sb.coalesced();
        self.stats.min_free_pregs = self.rf.min_free_seen();
        let m = self.stats.mem;
        self.stats.energy.record(Event::L2Access, m.l2_accesses);
        self.stats.energy.record(Event::DramAccess, m.l2_misses);
    }
}

#[cfg(test)]
mod livelock_tests {
    use super::*;
    use crate::config::{CommModel, CoreConfig};
    use crate::rob::UopState;

    #[test]
    fn baseline_partial_word_makes_progress() {
        let src = r#"
            .data
    buf:    .space 64
            .text
            lui  $8, %hi(buf)
            ori  $8, $8, %lo(buf)
            li   $4, 0
            li   $5, 40
    loop:
            andi $6, $4, 7
            sll  $6, $6, 2
            add  $6, $6, $8
            li   $7, -3
            sb   $7, 1($6)
            lbu  $9, 1($6)
            lb   $10, 1($6)
            add  $11, $11, $9
            add  $11, $11, $10
            li   $7, 0x1234
            sh   $7, 2($6)
            lhu  $12, 2($6)
            lw   $13, 0($6)
            add  $11, $11, $12
            add  $11, $11, $13
            sw   $11, 32($8)
            lw   $14, 32($8)
            addi $4, $4, 1
            bne  $4, $5, loop
            halt
        "#;
        let p = dmdp_isa::asm::assemble(src).unwrap();
        let cfg = CoreConfig::new(CommModel::Baseline);
        let mut pl = Pipeline::new(cfg, &p);
        for _ in 0..20_000 {
            pl.step_cycle();
            if pl.halted {
                return;
            }
        }
        // Dump state on livelock.
        let mut dump = String::new();
        use std::fmt::Write;
        writeln!(dump, "cycle={} retired={}", pl.cycle, pl.stats.retired_insns).unwrap();
        writeln!(dump, "sb occ={} empty={}", pl.sb.occupancy(), pl.sb.is_empty()).unwrap();
        writeln!(dump, "retry={:?} {}", pl.retry, pl.sched.dump()).unwrap();
        for e in pl.rob.iter().take(12) {
            writeln!(
                dump,
                "  seq={} pc={} kind={:?} state={:?} first={} last={} srcs={:?}",
                e.seq, e.pc, e.kind, e.state, e.first_of_insn, e.last_of_insn, e.src
            )
            .unwrap();
            let _ = UopState::Done;
        }
        panic!("livelock:\n{dump}");
    }
}
