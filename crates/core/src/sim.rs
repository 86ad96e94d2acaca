use std::sync::Arc;

use dmdp_isa::{Checkpoint, Program};

use crate::config::{CommModel, CoreConfig};
use crate::pipeline::{Pipeline, SimError};
use crate::plan::PlanCache;
use crate::probe::{Probe, ProbeReport};
use crate::stats::SimStats;

/// A complete simulation report: the configuration echo plus everything
/// measured.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Program name.
    pub program: String,
    /// Communication model simulated.
    pub model: CommModel,
    /// Collected statistics.
    pub stats: SimStats,
}

impl SimReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Cycles and instructions measured for one representative interval by
/// [`Simulator::run_from_checkpoint`], with the warmup window it
/// excluded reported alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalRun {
    /// Cycles spent warming microarchitectural state (excluded from the
    /// measurement).
    pub warmup_cycles: u64,
    /// Instructions retired during warmup.
    pub warmup_insns: u64,
    /// Cycles in the measurement window.
    pub cycles: u64,
    /// Instructions retired in the measurement window (may undershoot
    /// the requested length if the program halts inside the window, and
    /// overshoot by at most the retire width minus one).
    pub insns: u64,
}

/// The top-level simulator: configure once, run programs.
///
/// # Example
///
/// ```
/// use dmdp_core::{CommModel, Simulator};
/// use dmdp_isa::asm;
///
/// let program = asm::assemble_named(
///     "incr",
///     r#"
///         .data
///     x:  .word 5
///         .text
///         lui  $8, %hi(x)
///         ori  $8, $8, %lo(x)
///         lw   $9, 0($8)
///         addi $9, $9, 1
///         sw   $9, 0($8)
///         halt
///     "#,
/// )?;
/// let report = Simulator::new(CommModel::Dmdp).run(&program)?;
/// assert_eq!(report.stats.retired_insns, 6);
/// assert!(report.ipc() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: CoreConfig,
}

impl Simulator {
    /// A simulator with the paper's main configuration for `model`.
    pub fn new(model: CommModel) -> Simulator {
        Simulator { cfg: CoreConfig::new(model) }
    }

    /// A simulator with a custom configuration (alternative ROB sizes,
    /// widths, store buffers, consistency models — §VI-e/f/g).
    pub fn with_config(cfg: CoreConfig) -> Simulator {
        Simulator { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Runs `program` to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] if the program does not halt in
    /// `config().max_cycles` cycles.
    pub fn run(&self, program: &Program) -> Result<SimReport, SimError> {
        let pipeline = Pipeline::new(self.cfg.clone(), program);
        let stats = pipeline.run()?;
        Ok(SimReport { program: program.name().to_string(), model: self.cfg.comm, stats })
    }

    /// Runs a shared program image with a prebuilt [`PlanCache`] —
    /// campaign runners build the cache once per workload and share it
    /// across every (model × variant) job, so `stats.plan.builds` stays
    /// zero on these runs (the build cost was paid elsewhere).
    ///
    /// # Errors
    ///
    /// See [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics if `plans` was built for a different program image.
    pub fn run_planned(
        &self,
        program: &Arc<Program>,
        plans: &Arc<PlanCache>,
    ) -> Result<SimReport, SimError> {
        let pipeline =
            Pipeline::new_planned(self.cfg.clone(), Arc::clone(program), Arc::clone(plans));
        let stats = pipeline.run()?;
        Ok(SimReport { program: program.name().to_string(), model: self.cfg.comm, stats })
    }

    /// Fast-forwards to `ckpt` (architectural state restored directly,
    /// no cycles simulated), runs `warmup_insns` instructions to warm
    /// the cold microarchitectural state, then measures the next
    /// `measure_insns` instructions. Fewer may be measured if the
    /// program halts inside the window — the returned
    /// [`IntervalRun::insns`] is the count actually measured, so
    /// CPI-weighted recombination stays exact.
    ///
    /// For the Perfect model the functional oracle replays from the
    /// checkpoint and is bounded to the window (plus in-flight slack)
    /// instead of tracing the whole remaining run — the point of
    /// sampled simulation.
    ///
    /// # Errors
    ///
    /// See [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics if `plans` was built for a different program image.
    pub fn run_from_checkpoint(
        &self,
        program: &Arc<Program>,
        plans: &Arc<PlanCache>,
        ckpt: &Checkpoint,
        warmup_insns: u64,
        measure_insns: u64,
    ) -> Result<IntervalRun, SimError> {
        // In-flight slack past the measurement end: younger loads can be
        // fetched (and oracle-predicated) before the last measured
        // instruction retires. One ROB of instructions would be enough;
        // a generous fixed margin costs only emulated instructions.
        const ORACLE_SLACK: u64 = 65_536;
        let budget = warmup_insns.saturating_add(measure_insns).saturating_add(ORACLE_SLACK);
        let oracle = Pipeline::build_oracle_from_checkpoint(&self.cfg, program, ckpt, budget);
        let mut pipeline = Pipeline::new_planned_with_oracle(
            self.cfg.clone(),
            Arc::clone(program),
            Arc::clone(plans),
            oracle,
        );
        pipeline.seed_checkpoint(ckpt);
        pipeline.run_to_retired(warmup_insns)?;
        let warmup_cycles = pipeline.cycles_so_far();
        let warmup_done = pipeline.retired_so_far();
        pipeline.run_to_retired(warmup_done.saturating_add(measure_insns))?;
        Ok(IntervalRun {
            warmup_cycles,
            warmup_insns: warmup_done,
            cycles: pipeline.cycles_so_far() - warmup_cycles,
            insns: pipeline.retired_so_far() - warmup_done,
        })
    }

    /// Runs `program` with probe sinks attached (stage-timeline tracer
    /// and/or time-series sampler), returning their collected artifacts
    /// alongside the report. The report's statistics are bit-identical
    /// to an unprobed [`Simulator::run`] — probes observe, never
    /// perturb.
    ///
    /// # Errors
    ///
    /// See [`Simulator::run`].
    pub fn run_probed(
        &self,
        program: &Program,
        probe: Probe,
    ) -> Result<(SimReport, ProbeReport), SimError> {
        let mut pipeline = Pipeline::new(self.cfg.clone(), program);
        pipeline.set_probe(probe);
        let (stats, probe_report) = pipeline.run_probed()?;
        let report =
            SimReport { program: program.name().to_string(), model: self.cfg.comm, stats };
        Ok((report, probe_report))
    }

    /// Runs with lock-step functional checking: every retired
    /// instruction is compared against the architectural emulator.
    ///
    /// # Errors
    ///
    /// See [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics on any architectural divergence (this is the test harness's
    /// primary correctness oracle).
    pub fn run_checked(&self, program: &Program) -> Result<SimReport, SimError> {
        let mut pipeline = Pipeline::new(self.cfg.clone(), program);
        pipeline.enable_cosim();
        let stats = pipeline.run()?;
        Ok(SimReport { program: program.name().to_string(), model: self.cfg.comm, stats })
    }
}
