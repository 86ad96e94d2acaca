//! The batched lockstep sweep engine.
//!
//! A configuration sweep runs N variants of the same (workload, model)
//! pair. Job-per-variant execution re-pays everything the variants share
//! — image decode, plan building, the Perfect model's functional oracle
//! pre-pass — N times, and walks every cycle of every variant one
//! `step_cycle` at a time. [`BatchSimulator`] instead drives the variant
//! lanes through one shared front-end:
//!
//! * the `Arc<Program>` image, the static [`PlanCache`] decode plans and
//!   the Perfect-model [`OracleTrace`] are built once and shared by every
//!   lane (fetch-class decode and plan lookup happen once per *static*
//!   instruction, not once per variant);
//! * per-variant timing state lives in per-lane [`Pipeline`]s advanced in
//!   chunked lockstep (structure-of-arrays driver bookkeeping: the
//!   per-lane cycle/completion vectors are packed separately from the
//!   boxed lane state, so the scheduling loop touches only hot scalars);
//! * each lane carries an **event-horizon fast-forward**: when a lane is
//!   quiescent — nothing ready to issue, fetch stalled or blocked, no
//!   probe/cosim attached — the driver computes the earliest future cycle
//!   at which *anything* can happen, steps **one** candidate cycle,
//!   confirms it was dead, and applies the remaining span by
//!   multiplication (see [`Pipeline::step_or_skip`]);
//! * **never-bound variant deduplication**: sizing variants (ROB, PRF,
//!   issue queue, store buffer) only diverge when a capacity guard
//!   actually fires. Every guard the four limits feed is monotone —
//!   rename admission (`rob.free() < worst`, `free_count() < 4`,
//!   `iq_free < worst`) and retire-store admission (`sb.is_full()`) — so
//!   a run that records its *demand* high-water (occupancy plus request
//!   at each guard evaluation) proves that any same-shaped variant
//!   agreeing on every guard — equal limit, or demand clearing both
//!   limits — performs the bit-identical execution. The
//!   batch runs the roomiest lane of each sizing group first and derives
//!   every covered variant's statistics without simulating it; only
//!   lanes below the binding knee run for real. (The lone limit-valued
//!   statistic, `min_free_pregs`, is shifted by the PRF-size delta.)
//!
//! Timing stays bit-identical to the unbatched path per variant
//! (`tests/golden_stats.rs` pins both). The solo [`crate::Simulator`]
//! path deliberately keeps the plain per-cycle loop: it is the reference
//! the golden digests were recorded against and the honest baseline for
//! the batched-vs-job-per-variant benchmark A/B.

use std::sync::Arc;

use dmdp_isa::{OracleTrace, Program};

use crate::config::{CommModel, CoreConfig};
use crate::pipeline::{Pipeline, SimError, VerifyPhase};
use crate::plan::PlanCache;
use crate::stats::SimStats;

/// Cycles a lane advances per lockstep turn. Small enough that the
/// lanes' working sets rotate through the cache together, large enough
/// that the round-robin bookkeeping is noise.
const LOCKSTEP_CHUNK: u64 = 4096;

/// Minimum dead-span length (beyond the confirm step itself) worth the
/// stats snapshot a skip attempt costs.
const MIN_SKIP_SPAN: u64 = 2;

/// Resource-demand high-water marks, recorded at the exact program
/// points where the four sizing limits are consulted. A limit at least
/// as large as the recorded demand provably never fires its guard in
/// this execution, so the execution — and every statistic except
/// `min_free_pregs` — is independent of the limit's exact value.
#[derive(Debug, Default, Clone)]
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

/// Total sizing headroom — the wave scheduler runs the roomiest lane of
/// each group first, since its execution has the best chance of never
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

/// Steps many configuration variants of one planned program in lockstep
/// over a shared instruction stream.
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

    /// [`BatchSimulator::run`] plus the batch-machinery tallies: how many
    /// lanes were derived without simulation and how much work the
    /// event-horizon fast-forward skipped. Service observability reads
    /// these; per-variant timing is identical either way.
    pub fn run_detailed(self) -> BatchRun {
        let BatchSimulator { program, plans, cfgs } = self;
        let keys: Vec<String> = cfgs.iter().map(sizing_group_key).collect();
        // Perfect-model lanes share one functional pre-pass per distinct
        // emulation bound (the trace depends on nothing else).
        let mut oracles: Vec<(u64, Arc<OracleTrace>)> = Vec::new();
        let mut results: Vec<Option<Result<SimStats, SimError>>> =
            (0..cfgs.len()).map(|_| None).collect();
        // Completed live runs usable as derivation references.
        let mut refs: Vec<(usize, HwDemand, SimStats)> = Vec::new();
        let mut derived = 0usize;
        let mut ff_spans = 0u64;
        let mut ff_cycles = 0u64;
        let mut remaining: Vec<usize> = (0..cfgs.len()).collect();
        while !remaining.is_empty() {
            // Derive every lane some completed reference already covers.
            remaining.retain(|&i| {
                for (r, dem, stats) in &refs {
                    if keys[*r] == keys[i] {
                        if let Some(s) = derive_stats(dem, stats, &cfgs[*r], &cfgs[i]) {
                            results[i] = Some(Ok(s));
                            derived += 1;
                            return false;
                        }
                    }
                }
                true
            });
            // Wave: the roomiest remaining lane of each sizing group.
            let mut wave: Vec<usize> = Vec::new();
            for &i in &remaining {
                match wave.iter().position(|&w| keys[w] == keys[i]) {
                    Some(p) if sizing_room(&cfgs[i]) > sizing_room(&cfgs[wave[p]]) => wave[p] = i,
                    Some(_) => {}
                    None => wave.push(i),
                }
            }
            if wave.is_empty() {
                break;
            }
            remaining.retain(|i| !wave.contains(i));
            let mut lanes: Vec<(usize, Box<Pipeline>)> = Vec::with_capacity(wave.len());
            for &i in &wave {
                let cfg = cfgs[i].clone();
                let oracle = match cfg.comm {
                    CommModel::Perfect => {
                        match oracles.iter().find(|(bound, _)| *bound == cfg.max_cycles) {
                            Some((_, trace)) => Some(Arc::clone(trace)),
                            None => {
                                let trace = Pipeline::build_oracle(&cfg, &program)
                                    .expect("perfect model builds a trace");
                                oracles.push((cfg.max_cycles, Arc::clone(&trace)));
                                Some(trace)
                            }
                        }
                    }
                    _ => None,
                };
                lanes.push((
                    i,
                    Box::new(Pipeline::new_planned_with_oracle(
                        cfg,
                        Arc::clone(&program),
                        Arc::clone(&plans),
                        oracle,
                    )),
                ));
            }
            // Structure-of-arrays driver state: the lockstep loop reads
            // and writes the flat index vector; the boxed lane state is
            // touched only inside its own turn.
            let mut live: Vec<usize> = (0..lanes.len()).collect();
            while !live.is_empty() {
                for &l in &live {
                    let (idx, pipeline) = &mut lanes[l];
                    if let Some(outcome) = advance_lane(pipeline, LOCKSTEP_CHUNK) {
                        if let Ok(stats) = &outcome {
                            refs.push((*idx, pipeline.hw.clone(), stats.clone()));
                        }
                        ff_spans += pipeline.ff_spans;
                        ff_cycles += pipeline.ff_cycles;
                        results[*idx] = Some(outcome);
                    }
                }
                live.retain(|&l| results[lanes[l].0].is_none());
            }
        }
        BatchRun {
            results: results.into_iter().map(|r| r.expect("every lane finished")).collect(),
            derived,
            ff_spans,
            ff_cycles,
        }
    }
}

/// The outcome of [`BatchSimulator::run_detailed`]: per-lane results in
/// push order plus tallies of what the batch machinery saved.
#[derive(Debug)]
pub struct BatchRun {
    /// Per-lane results, in the order the lanes were pushed.
    pub results: Vec<Result<SimStats, SimError>>,
    /// Lanes whose statistics were derived from a never-bound reference
    /// run instead of being simulated.
    pub derived: usize,
    /// Confirmed-dead spans applied by the event-horizon fast-forward.
    pub ff_spans: u64,
    /// Simulated cycles covered by those spans without stepping them.
    pub ff_cycles: u64,
}

/// Advances one lane by up to `chunk` simulated cycles (fast-forwarded
/// spans count). Returns the lane's final result when it completes,
/// mirroring `Pipeline::run_loop` exactly: the cycle-limit check
/// precedes every step, and finalization happens once at halt.
fn advance_lane(p: &mut Pipeline, chunk: u64) -> Option<Result<SimStats, SimError>> {
    let turn_end = p.cycle.saturating_add(chunk);
    while !p.halted {
        if p.cycle >= p.cfg.max_cycles {
            return Some(Err(SimError::CycleLimit { limit: p.cfg.max_cycles }));
        }
        if p.cycle >= turn_end {
            return None;
        }
        p.step_or_skip();
    }
    p.finalize();
    Some(Ok(std::mem::take(&mut p.stats)))
}

/// A structural fingerprint of everything the dead-cycle confirm step
/// must prove unchanged and that [`SimStats`] equality cannot see (the
/// store buffer's queued/in-flight split, the front-end cursor, the SSN
/// cursors, the scheduler's registration counts).
#[derive(Debug, PartialEq, Eq)]
struct QuiescenceFp {
    rob_len: usize,
    rob_next: u64,
    decode_len: usize,
    iq_len: usize,
    ready: usize,
    delayed_ready: usize,
    retry: usize,
    calendar: usize,
    seq_waiters: usize,
    ssn_waiters: usize,
    sb_occupancy: usize,
    sb_queued: usize,
    ssns: (u32, u32, u32),
    fetch_pc: dmdp_isa::Pc,
    fetch_stopped: bool,
    verify: Option<VerifyPhase>,
    next_load_idx: u64,
    last_commit_addr: Option<dmdp_isa::Addr>,
}

impl Pipeline {
    /// Whether this lane is even a candidate for fast-forwarding: no
    /// observer that sees individual cycles (probe sinks, cosim), no
    /// cycle-periodic coherence injection, and nothing ready to issue.
    fn quiescence_candidate(&self) -> bool {
        self.probe.is_off()
            && self.cosim.is_none()
            && self.cfg.coherence_invalidate_every.is_none()
            && self.sched.ready.is_empty()
            && self.sched.delayed_ready.is_empty()
            && self.retry.is_empty()
    }

    /// The earliest future cycle at which any stage can do something new,
    /// assuming the machine is dead now: the completion calendar's head,
    /// the store buffer's next issue/completion, an in-flight verify
    /// read finishing, or the fetch redirect penalty expiring. Returns
    /// `self.cycle` (no skippable span) when fetch could act this cycle.
    /// Capped at `max_cycles`: a truly event-free livelocked lane
    /// fast-forwards straight to its cycle-limit abort.
    fn quiescence_horizon(&self) -> u64 {
        let mut horizon = self.sched.calendar.min_done().unwrap_or(u64::MAX);
        if let Some(event) = self.sb.next_event_cycle(self.cycle) {
            horizon = horizon.min(event);
        }
        if let Some(v) = &self.verify {
            if let VerifyPhase::Reading(done) = v.phase {
                horizon = horizon.min(done);
            }
        }
        if !self.fetch_stopped && self.decode_q.len() < 3 * self.cfg.width {
            if self.cycle < self.fetch_stall_until {
                horizon = horizon.min(self.fetch_stall_until);
            } else {
                return self.cycle; // fetch is active right now
            }
        }
        horizon.min(self.cfg.max_cycles)
    }

    /// Cheap sufficient test that the rename stage cannot make progress
    /// this cycle (its gates also depend on the per-instruction µop
    /// count, so this under-approximates; the confirm step catches the
    /// rest).
    fn rename_blocked(&self) -> bool {
        self.decode_q.is_empty()
            || self.rob.free() == 0
            || self.rf.free_count() < 4
            || self.sched.iq_free(self.cfg.iq_entries) == 0
    }

    fn quiescence_fp(&self) -> QuiescenceFp {
        QuiescenceFp {
            rob_len: self.rob.len(),
            rob_next: self.rob.next_seq(),
            decode_len: self.decode_q.len(),
            iq_len: self.sched.iq_len,
            ready: self.sched.ready.len(),
            delayed_ready: self.sched.delayed_ready.len(),
            retry: self.retry.len(),
            calendar: self.sched.calendar.len(),
            seq_waiters: self.sched.seq_waiters.len(),
            ssn_waiters: self.sched.ssn_waiters.len(),
            sb_occupancy: self.sb.occupancy(),
            sb_queued: self.sb.queued_len(),
            ssns: (self.ssn_rename, self.ssn_retire, self.ssn_commit),
            fetch_pc: self.fetch_pc,
            fetch_stopped: self.fetch_stopped,
            verify: self.verify.as_ref().map(|v| v.phase),
            next_load_idx: self.next_load_idx,
            last_commit_addr: self.last_commit_addr,
        }
    }

    /// One simulated cycle, with the event-horizon fast-forward: when the
    /// lane looks quiescent and the next event is far enough away, step
    /// one candidate cycle, confirm it was dead (full-stats equality
    /// modulo the two retire-stall counters, structural fingerprint
    /// unchanged), and apply the remaining dead span by multiplication —
    /// bit-exact, because a confirmed-dead cycle's behaviour is
    /// cycle-independent until the horizon by construction of
    /// [`Pipeline::quiescence_horizon`].
    pub(crate) fn step_or_skip(&mut self) {
        if self.quiescence_candidate() && self.rename_blocked() {
            let horizon = self.quiescence_horizon();
            if horizon > self.cycle + MIN_SKIP_SPAN {
                return self.step_confirming_skip(horizon);
            }
        }
        self.step_cycle();
    }

    fn step_confirming_skip(&mut self, horizon: u64) {
        let stats_before = self.stats.clone();
        let fp_before = self.quiescence_fp();
        self.step_cycle();
        if self.halted {
            return;
        }
        // The only statistics a dead cycle may move are the two
        // retire-stall counters, by exactly the same amount every cycle
        // of the span (their paths read no cycle number).
        let d_sb = self.stats.sb_full_stall_cycles - stats_before.sb_full_stall_cycles;
        let d_reexec = self.stats.reexec_stall_cycles - stats_before.reexec_stall_cycles;
        let mut stats_after = self.stats.clone();
        stats_after.sb_full_stall_cycles = stats_before.sb_full_stall_cycles;
        stats_after.reexec_stall_cycles = stats_before.reexec_stall_cycles;
        if stats_after == stats_before && self.quiescence_fp() == fp_before {
            let span = horizon.saturating_sub(self.cycle);
            self.cycle += span;
            self.stats.sb_full_stall_cycles += span * d_sb;
            self.stats.reexec_stall_cycles += span * d_reexec;
            self.ff_spans += 1;
            self.ff_cycles += span;
        }
    }
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

    /// A store-heavy loop with a cache-missing stride: plenty of
    /// ROB-full and SB-drain dead cycles for the fast-forward to chew.
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
        assert!(
            run.ff_spans > 0 && run.ff_cycles >= run.ff_spans,
            "the store-heavy strider must exercise the fast-forward ({} spans)",
            run.ff_spans
        );
        assert_ne!(
            results[0].as_ref().unwrap().cycles,
            results[1].as_ref().unwrap().cycles,
            "sb=1 must time differently from sb=16"
        );
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

