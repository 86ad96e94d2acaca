//! The batched sweep engine.
//!
//! A configuration sweep runs N variants of the same (workload, model)
//! pair. Job-per-variant execution re-pays everything the variants share
//! — image decode, plan building, the Perfect model's functional oracle
//! pre-pass — N times. [`BatchSimulator`] runs the variant lanes over one
//! shared front end instead:
//!
//! * the `Arc<Program>` image, the static [`PlanCache`] decode plans and
//!   the Perfect-model [`OracleTrace`] (one per emulation bound) are built
//!   once and shared by every lane;
//! * **never-bound variant derivation**: sizing variants (ROB, PRF,
//!   issue queue, store buffer) only diverge when a capacity guard
//!   actually fires. Every guard the four limits feed is monotone —
//!   rename admission (`rob.free() < worst`, `free_count() < 4`,
//!   `iq_free < worst`) and retire-store admission (`sb.is_full()`) — so
//!   a run that records its *demand* high-water (occupancy plus request
//!   at each guard evaluation) proves that any same-shaped variant
//!   agreeing on every guard — equal limit, or demand clearing both
//!   limits — performs the bit-identical execution. Such a variant's
//!   statistics are derived without simulating it. (The lone
//!   limit-valued statistic, `min_free_pregs`, is shifted by the PRF-size
//!   delta.)
//!
//! Lanes are visited one at a time, one sizing group after another:
//! roomiest lane first within a group, push order breaking ties. The
//! roomiest lane has the best chance of never binding, so its run comes
//! first and covers as much of its group as it can. A lane no finished
//! run covers runs to completion through the solo [`Pipeline`] loop, so
//! timing is bit-identical to the unbatched path per variant
//! (`tests/golden_stats.rs` pins both).

use std::cmp::Reverse;
use std::sync::Arc;

use dmdp_isa::{OracleTrace, Program};

use crate::config::{CommModel, CoreConfig};
use crate::pipeline::{Pipeline, SimError};
use crate::plan::PlanCache;
use crate::stats::SimStats;

/// Resource-demand high-water marks, recorded at the exact program
/// points where the four sizing limits are consulted. A limit at least
/// as large as the recorded demand provably never fires its guard in
/// this execution, so the execution — and every statistic except
/// `min_free_pregs` — is independent of the limit's exact value.
#[derive(Debug, Default)]
pub(crate) struct HwDemand {
    /// `max(rob.len() + worst)` over rename admission checks: the ROB
    /// guard fires iff `rob_entries < len + worst`.
    rob: usize,
    /// `max(iq_len + worst)` over rename admission checks.
    iq: usize,
    /// `max(used_pregs + 4)` over rename admission checks: the PRF
    /// guard fires iff `free_count() < 4`, i.e. `phys_regs < used + 4`.
    prf: usize,
    /// `max(occupancy + 1)` over retire-store admission checks: the
    /// store buffer guard fires iff `occupancy >= capacity`.
    sb: usize,
}

impl HwDemand {
    /// Records one rename admission check.
    #[inline]
    pub(crate) fn note_rename(
        &mut self,
        rob_len: usize,
        iq_len: usize,
        used_pregs: usize,
        worst: usize,
    ) {
        self.rob = self.rob.max(rob_len + worst);
        self.iq = self.iq.max(iq_len + worst);
        self.prf = self.prf.max(used_pregs + 4);
    }

    /// Records one retire-store admission check.
    #[inline]
    pub(crate) fn note_store_retire(&mut self, sb_occupancy: usize) {
        self.sb = self.sb.max(sb_occupancy + 1);
    }

    /// Whether an execution with this demand profile behaves identically
    /// under `a`'s and `b`'s limits. Per dimension: equal limits make
    /// every guard evaluation agree trivially (same trajectory, same
    /// inputs); differing limits agree iff the demand clears both, so
    /// the guard never fires in either. Induction over cycles extends
    /// per-check agreement to whole-execution bit-identity.
    fn transfers(&self, a: &CoreConfig, b: &CoreConfig) -> bool {
        let dim = |dem: usize, a: usize, b: usize| a == b || (dem <= a && dem <= b);
        dim(self.rob, a.rob_entries, b.rob_entries)
            && dim(self.iq, a.iq_entries, b.iq_entries)
            && dim(self.prf, a.phys_regs, b.phys_regs)
            && dim(self.sb, a.store_buffer_entries, b.store_buffer_entries)
    }
}

/// Group key for never-bound deduplication: the full configuration
/// identity with the four sizing limits normalised away. Two lanes in
/// the same group differ *only* in capacities whose guards are monotone.
fn sizing_group_key(cfg: &CoreConfig) -> String {
    let normalized = CoreConfig {
        rob_entries: 0,
        phys_regs: 0,
        iq_entries: 0,
        store_buffer_entries: 0,
        ..cfg.clone()
    };
    normalized.identity()
}

/// Total sizing headroom — the batch visits the roomiest lane of each
/// group first, since its execution has the best chance of never
/// binding and thereby covering the rest of the group.
fn sizing_room(cfg: &CoreConfig) -> usize {
    cfg.rob_entries + cfg.phys_regs + cfg.iq_entries + cfg.store_buffer_entries
}

/// If `dem` (recorded by a completed run under `ref_cfg`) proves the
/// execution transfers to `cfg`'s limits, returns the variant's
/// bit-identical statistics: a copy of the reference stats with
/// `min_free_pregs` shifted by the PRF-size delta (the free count is
/// `phys_regs - used`, and the used high-water is shared).
fn derive_stats(
    dem: &HwDemand,
    ref_stats: &SimStats,
    ref_cfg: &CoreConfig,
    cfg: &CoreConfig,
) -> Option<SimStats> {
    if !dem.transfers(ref_cfg, cfg) {
        return None;
    }
    let mut stats = ref_stats.clone();
    stats.min_free_pregs = (stats.min_free_pregs + cfg.phys_regs)
        .checked_sub(ref_cfg.phys_regs)
        .expect("never-bound run keeps at least 4 registers free");
    Some(stats)
}

/// Runs many configuration variants of one planned program over a
/// shared front end.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use dmdp_core::{BatchSimulator, CommModel, CoreConfig, PlanCache, Simulator};
/// use dmdp_isa::asm;
///
/// let program = Arc::new(asm::assemble("li $1, 41\naddi $1, $1, 1\nhalt")?);
/// let plans = PlanCache::shared(&program);
/// let mut batch = BatchSimulator::new(Arc::clone(&program), Arc::clone(&plans));
/// batch.push(CoreConfig::new(CommModel::Dmdp));
/// batch.push(CoreConfig { rob_entries: 32, ..CoreConfig::new(CommModel::Dmdp) });
/// let results = batch.run();
/// assert_eq!(results.len(), 2);
/// // Bit-identical to the job-per-variant path.
/// let solo = Simulator::new(CommModel::Dmdp).run_planned(&program, &plans)?;
/// assert_eq!(results[0].as_ref().unwrap(), &solo.stats);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BatchSimulator {
    program: Arc<Program>,
    plans: Arc<PlanCache>,
    cfgs: Vec<CoreConfig>,
}

impl BatchSimulator {
    /// An empty batch over one planned program image.
    ///
    /// # Panics
    ///
    /// Panics (on [`BatchSimulator::run`]) if `plans` was built for a
    /// different program.
    pub fn new(program: Arc<Program>, plans: Arc<PlanCache>) -> BatchSimulator {
        BatchSimulator { program, plans, cfgs: Vec::new() }
    }

    /// Adds one variant lane.
    pub fn push(&mut self, cfg: CoreConfig) {
        self.cfgs.push(cfg);
    }

    /// Number of variant lanes.
    pub fn len(&self) -> usize {
        self.cfgs.len()
    }

    /// Whether the batch has no lanes.
    pub fn is_empty(&self) -> bool {
        self.cfgs.is_empty()
    }

    /// Runs every lane to completion, returning per-lane results in push
    /// order. Each lane's [`SimStats`] are bit-identical to a solo
    /// [`crate::Simulator::run_planned`] of the same configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or a failing oracle pre-pass,
    /// as [`Pipeline::new_planned`].
    pub fn run(self) -> Vec<Result<SimStats, SimError>> {
        self.run_detailed().results
    }

    /// [`BatchSimulator::run`] plus how many lanes were derived without
    /// simulation. Service observability reads the tally; per-variant
    /// timing is identical either way.
    pub fn run_detailed(self) -> BatchRun {
        let BatchSimulator { program, plans, cfgs } = self;
        let keys: Vec<String> = cfgs.iter().map(sizing_group_key).collect();
        // One sizing group after another, roomiest lane first; the sort
        // is stable, so push order breaks ties.
        let mut order: Vec<usize> = (0..cfgs.len()).collect();
        order.sort_by_key(|&i| (&keys[i], Reverse(sizing_room(&cfgs[i]))));
        // Perfect-model lanes share one functional pre-pass per distinct
        // emulation bound (the trace depends on nothing else).
        let mut oracles: Vec<(u64, Arc<OracleTrace>)> = Vec::new();
        let mut results: Vec<Option<_>> = cfgs.iter().map(|_| None).collect();
        // Finished live runs usable as derivation references.
        let mut refs: Vec<(usize, HwDemand, SimStats)> = Vec::new();
        let mut derived = 0usize;
        for i in order {
            let cfg = &cfgs[i];
            let covered = refs
                .iter()
                .filter(|(r, _, _)| keys[*r] == keys[i])
                .find_map(|(r, dem, stats)| derive_stats(dem, stats, &cfgs[*r], cfg));
            if let Some(stats) = covered {
                results[i] = Some(Ok(stats));
                derived += 1;
                continue;
            }
            let shared = oracles.iter().find(|(bound, _)| *bound == cfg.max_cycles);
            let oracle = match (cfg.comm, shared) {
                (CommModel::Perfect, Some((_, trace))) => Some(Arc::clone(trace)),
                (CommModel::Perfect, None) => {
                    let trace =
                        Pipeline::build_oracle(cfg, &program).expect("perfect model builds a trace");
                    oracles.push((cfg.max_cycles, Arc::clone(&trace)));
                    Some(trace)
                }
                _ => None,
            };
            let mut lane = Pipeline::new_planned_with_oracle(
                cfg.clone(),
                Arc::clone(&program),
                Arc::clone(&plans),
                oracle,
            );
            let outcome = lane.run_loop().map(|()| std::mem::take(&mut lane.stats));
            if let Ok(stats) = &outcome {
                refs.push((i, lane.hw, stats.clone()));
            }
            results[i] = Some(outcome);
        }
        BatchRun {
            results: results.into_iter().map(|r| r.expect("every lane finished")).collect(),
            derived,
        }
    }
}

/// The outcome of [`BatchSimulator::run_detailed`]: per-lane results in
/// push order plus how many lanes the batch derived.
#[derive(Debug)]
pub struct BatchRun {
    /// Per-lane results, in the order the lanes were pushed.
    pub results: Vec<Result<SimStats, SimError>>,
    /// Lanes whose statistics were derived from a never-bound reference
    /// run instead of being simulated.
    pub derived: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    fn planned(src: &str) -> (Arc<Program>, Arc<PlanCache>) {
        let program = Arc::new(dmdp_isa::asm::assemble(src).unwrap());
        let plans = PlanCache::shared(&program);
        (program, plans)
    }

    /// A store-heavy loop with a cache-missing stride: the ROB fills and
    /// the store buffer drains slowly, so sizing variants bind.
    const STRIDER: &str = r#"
            .data
    buf:    .space 8192
            .text
            lui  $8, %hi(buf)
            ori  $8, $8, %lo(buf)
            li   $4, 0
            li   $5, 60
    loop:
            andi $6, $4, 31
            sll  $6, $6, 6
            add  $6, $6, $8
            lw   $9, 0($6)
            add  $9, $9, $4
            sw   $9, 0($6)
            sw   $4, 4($6)
            addi $4, $4, 1
            bne  $4, $5, loop
            halt
        "#;

    #[test]
    fn batch_matches_solo_for_every_model_and_patchy_variants() {
        let (program, plans) = planned(STRIDER);
        for model in CommModel::ALL {
            let variants = [
                CoreConfig::new(model),
                CoreConfig { rob_entries: 32, ..CoreConfig::new(model) },
                CoreConfig { store_buffer_entries: 2, ..CoreConfig::new(model) },
                CoreConfig {
                    consistency: dmdp_mem::Consistency::Rmo,
                    ..CoreConfig::new(model)
                },
                CoreConfig { width: 4, phys_regs: 96, ..CoreConfig::new(model) },
            ];
            let mut batch = BatchSimulator::new(Arc::clone(&program), Arc::clone(&plans));
            for cfg in &variants {
                batch.push(cfg.clone());
            }
            let results = batch.run();
            assert_eq!(results.len(), variants.len());
            for (cfg, got) in variants.iter().zip(&results) {
                let solo = Simulator::with_config(cfg.clone())
                    .run_planned(&program, &plans)
                    .expect("solo run halts");
                assert_eq!(
                    got.as_ref().expect("batch lane halts"),
                    &solo.stats,
                    "batched lane diverged from solo ({} rob={} sb={} {:?})",
                    model.name(),
                    cfg.rob_entries,
                    cfg.store_buffer_entries,
                    cfg.consistency
                );
            }
        }
    }

    /// Upsized sizing variants whose limits never bind must be derived
    /// from the reference run — and still match their solo runs bit for
    /// bit, including the PRF-shifted `min_free_pregs`.
    #[test]
    fn never_bound_variants_are_derived_and_match_solo() {
        // Straight-line code: a sustained loop fills any ROB during a
        // miss, but a short block leaves every default-sized resource
        // far below its limit.
        let (program, plans) = planned(
            "li $1, 7\nli $2, 35\nadd $3, $1, $2\nsw $3, 0($0)\nlw $4, 0($0)\nadd $5, $4, $1\nsw $5, 4($0)\nhalt",
        );
        let variants = [
            CoreConfig::new(CommModel::Dmdp),
            CoreConfig { rob_entries: 512, ..CoreConfig::new(CommModel::Dmdp) },
            CoreConfig { phys_regs: 512, ..CoreConfig::new(CommModel::Dmdp) },
            CoreConfig {
                rob_entries: 384,
                phys_regs: 448,
                store_buffer_entries: 64,
                iq_entries: 128,
                ..CoreConfig::new(CommModel::Dmdp)
            },
        ];
        let mut batch = BatchSimulator::new(Arc::clone(&program), Arc::clone(&plans));
        for cfg in &variants {
            batch.push(cfg.clone());
        }
        let run = batch.run_detailed();
        let results = run.results;
        // The block never fills any default-sized resource, so the
        // roomiest lane's single live run covers every other lane.
        assert_eq!(run.derived, 3, "expected all other lanes to be derived");
        for (cfg, got) in variants.iter().zip(&results) {
            let solo = Simulator::with_config(cfg.clone())
                .run_planned(&program, &plans)
                .expect("solo run halts");
            assert_eq!(
                got.as_ref().expect("batch lane halts"),
                &solo.stats,
                "derived lane diverged from solo (rob={} prf={})",
                cfg.rob_entries,
                cfg.phys_regs,
            );
        }
    }

    /// Downsized variants that do bind must run live and diverge.
    #[test]
    fn binding_variants_run_live() {
        let (program, plans) = planned(STRIDER);
        let mut batch = BatchSimulator::new(Arc::clone(&program), Arc::clone(&plans));
        batch.push(CoreConfig::new(CommModel::Dmdp));
        batch.push(CoreConfig { store_buffer_entries: 1, ..CoreConfig::new(CommModel::Dmdp) });
        let run = batch.run_detailed();
        let results = run.results;
        assert_eq!(run.derived, 0, "a binding variant must not be derived");
        assert_ne!(
            results[0].as_ref().unwrap().cycles,
            results[1].as_ref().unwrap().cycles,
            "sb=1 must time differently from sb=16"
        );
    }

    /// milc over a sizing grid of ROB 128/256/384 × SB 8/16/32 with
    /// PRF = ROB + 64, pushed roomiest-first and then smallest-first. The
    /// batch visits the roomiest lane first either way, so both orders
    /// derive the same lanes, and every lane equals its solo run.
    #[test]
    fn derivation_follows_room_not_push_order() {
        let w = dmdp_workloads::by_name("milc", dmdp_workloads::Scale::Test).expect("known kernel");
        let program = Arc::new(w.program);
        let plans = PlanCache::shared(&program);
        for (model, want_derived) in CommModel::ALL.into_iter().zip([6, 4, 4, 6]) {
            let mut grid: Vec<CoreConfig> = [384, 256, 128]
                .into_iter()
                .flat_map(|rob| [32, 16, 8].map(|sb| (rob, sb)))
                .map(|(rob, sb)| CoreConfig {
                    rob_entries: rob,
                    phys_regs: rob + 64,
                    store_buffer_entries: sb,
                    ..CoreConfig::new(model)
                })
                .collect();
            for smallest_first in [false, true] {
                if smallest_first {
                    grid.reverse();
                }
                let mut batch = BatchSimulator::new(Arc::clone(&program), Arc::clone(&plans));
                grid.iter().for_each(|cfg| batch.push(cfg.clone()));
                let run = batch.run_detailed();
                assert_eq!(run.derived, want_derived, "{model:?}, smallest first: {smallest_first}");
                for (cfg, got) in grid.iter().zip(&run.results) {
                    let solo = Simulator::with_config(cfg.clone()).run_planned(&program, &plans);
                    let (rob, sb) = (cfg.rob_entries, cfg.store_buffer_entries);
                    assert_eq!(got, &Ok(solo.unwrap().stats), "{model:?} rob={rob} sb={sb}");
                }
            }
        }
    }

    #[test]
    fn cycle_limit_lane_reports_the_error_others_finish() {
        let (program, plans) = planned(STRIDER);
        let mut batch = BatchSimulator::new(Arc::clone(&program), Arc::clone(&plans));
        batch.push(CoreConfig::new(CommModel::Dmdp));
        batch.push(CoreConfig { max_cycles: 10, ..CoreConfig::new(CommModel::Dmdp) });
        let results = batch.run();
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(SimError::CycleLimit { limit: 10 }));
    }

    #[test]
    fn perfect_lanes_share_one_oracle_pass() {
        let (program, plans) = planned(STRIDER);
        let mut batch = BatchSimulator::new(Arc::clone(&program), Arc::clone(&plans));
        for rob in [256, 128, 64] {
            batch.push(CoreConfig { rob_entries: rob, ..CoreConfig::new(CommModel::Perfect) });
        }
        let results = batch.run();
        for (i, r) in results.iter().enumerate() {
            let stats = r.as_ref().expect("halts");
            assert!(stats.retired_insns > 0, "lane {i} retired nothing");
        }
        // Distinct ROB sizes must still time differently.
        assert_ne!(
            results[0].as_ref().unwrap().cycles,
            results[2].as_ref().unwrap().cycles
        );
    }

    #[test]
    fn empty_batch_runs_to_nothing() {
        let (program, plans) = planned("halt");
        let batch = BatchSimulator::new(program, plans);
        assert!(batch.is_empty());
        assert_eq!(batch.run().len(), 0);
    }
}

