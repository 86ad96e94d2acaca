use dmdp_energy::EnergyModel;
use dmdp_mem::MemStats;
use dmdp_stats::{mpki, LoadLatencyStats};

/// Outcome classification for low-confidence dependence predictions
/// (paper Figure 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowConfBreakdown {
    /// Predicted dependent but independent of any in-flight store.
    pub indep_store: u64,
    /// Dependent on a *different* in-flight store than predicted.
    pub diff_store: u64,
    /// The prediction was correct.
    pub correct: u64,
}

impl LowConfBreakdown {
    /// Total low-confidence loads classified.
    pub fn total(&self) -> u64 {
        self.indep_store + self.diff_store + self.correct
    }
}

/// Occupancy counters of the event-driven scheduler (PR 2). These
/// describe the *simulator implementation* — how much work the wakeup
/// machinery did — not the simulated machine, so they are deliberately
/// excluded from the golden-stats timing digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Sum over cycles of the ready-list length sampled at issue
    /// (divide by `cycles` for the mean).
    pub ready_occupancy: u64,
    /// Wake events delivered (register writes, store completions/retires,
    /// SSN-commit advances reaching a registered waiter).
    pub wakeups: u64,
    /// Completion-calendar pops (one per executed µop).
    pub calendar_pops: u64,
}

impl SchedStats {
    /// Mean ready-list length per cycle.
    pub fn mean_ready_len(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.ready_occupancy as f64 / cycles as f64
        }
    }

    /// Wake events per kilo-cycle.
    pub fn wakeups_per_kilocycle(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.wakeups as f64 * 1000.0 / cycles as f64
        }
    }

    /// Completion-calendar pops per kilo-cycle.
    pub fn calendar_pops_per_kilocycle(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.calendar_pops as f64 * 1000.0 / cycles as f64
        }
    }
}

/// Plan-cache counters (PR 4). Like [`SchedStats`] these describe the
/// *simulator implementation* — how much static decode work was built vs
/// amortised — not the simulated machine, so they are deliberately
/// excluded from the golden-stats timing digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Static [`crate::plan::InsnPlan`]s built by this pipeline (zero
    /// when a prebuilt cache was shared in, e.g. by the campaign
    /// harness).
    pub builds: u64,
    /// Dynamic instructions fetched through the plan cache.
    pub hits: u64,
}

/// Everything one simulation run measures.
///
/// Implements `PartialEq`/`Eq` so the campaign harness can assert that
/// parallel and serial executions of the same job are bit-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles until `halt` retired.
    pub cycles: u64,
    /// Architectural instructions retired.
    pub retired_insns: u64,
    /// µops retired (includes AGI/CMP/CMOV).
    pub retired_uops: u64,
    /// Loads retired.
    pub retired_loads: u64,
    /// Stores retired.
    pub retired_stores: u64,
    /// Predication µops inserted (CMP + CMOVs; DMDP only).
    pub predication_uops: u64,
    /// Per-class load counts and execution times (paper Fig. 2/3,
    /// Tables IV/V).
    pub load_latency: LoadLatencyStats,
    /// Execution time tracker restricted to low-confidence loads
    /// (paper Table V).
    pub lowconf_latency: LoadLatencyStats,
    /// Branch direction/target mispredictions.
    pub branch_mispredicts: u64,
    /// Memory dependence mispredictions causing a full recovery
    /// (paper Table VI's MPKI numerator).
    pub mem_dep_mispredicts: u64,
    /// Load re-executions issued (paper §IV-C).
    pub reexecutions: u64,
    /// Retire-stall cycles attributable to load re-execution
    /// (paper Table VII).
    pub reexec_stall_cycles: u64,
    /// Retire-stall cycles due to a full store buffer (paper §VI-e).
    pub sb_full_stall_cycles: u64,
    /// Figure 5 classification of low-confidence loads.
    pub lowconf: LowConfBreakdown,
    /// All pipeline recoveries (branch + memory).
    pub recoveries: u64,
    /// µops squashed across all recoveries.
    pub squashed_uops: u64,
    /// Dynamic energy accounting.
    pub energy: EnergyModel,
    /// Memory hierarchy statistics (filled at the end of the run).
    pub mem: MemStats,
    /// Store-buffer coalesced stores.
    pub coalesced_stores: u64,
    /// Minimum free physical registers observed (pressure, §VI-f).
    pub min_free_pregs: usize,
    /// External cache-line invalidations injected (§IV-F stand-in).
    pub coherence_invalidations: u64,
    /// Event-driven scheduler occupancy (simulator-side observability;
    /// not part of the timing-digest).
    pub sched: SchedStats,
    /// Plan-cache build/hit counters (simulator-side observability; not
    /// part of the timing-digest).
    pub plan: PlanStats,
}

impl SimStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_insns as f64 / self.cycles as f64
        }
    }

    /// Memory dependence mispredictions per kilo-instruction (Table VI).
    pub fn mem_dep_mpki(&self) -> f64 {
        mpki(self.mem_dep_mispredicts, self.retired_insns)
    }

    /// Re-execution stall cycles per kilo-instruction (Table VII).
    pub fn reexec_stalls_per_ki(&self) -> f64 {
        mpki(self.reexec_stall_cycles, self.retired_insns)
    }

    /// Energy-delay product of the run (Figure 15, in ratios).
    pub fn edp(&self) -> f64 {
        self.energy.edp(self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn derived_rates() {
        let s = SimStats {
            cycles: 1000,
            retired_insns: 2000,
            mem_dep_mispredicts: 4,
            reexec_stall_cycles: 10,
            ..SimStats::default()
        };
        assert_eq!(s.ipc(), 2.0);
        assert_eq!(s.mem_dep_mpki(), 2.0);
        assert_eq!(s.reexec_stalls_per_ki(), 5.0);
    }

    #[test]
    fn lowconf_total() {
        let b = LowConfBreakdown { indep_store: 3, diff_store: 1, correct: 2 };
        assert_eq!(b.total(), 6);
    }
}
