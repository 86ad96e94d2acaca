use dmdp_mem::{Consistency, MemConfig};
use dmdp_predict::{BranchConfig, ConfidencePolicy, DistanceConfig, StoreSetsConfig, TssbfConfig};

/// Which store-load communication mechanism the core uses (paper §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommModel {
    /// Conventional store queue + load queue with Store Sets dependence
    /// prediction; 4-cycle constant-latency SQ/SB/cache access; store
    /// coalescing.
    Baseline,
    /// Store-queue-free with memory cloaking; low-confidence loads are
    /// *delayed* until the predicted store commits; balanced confidence
    /// update.
    NoSq,
    /// The paper's contribution: like NoSQ, but low-confidence loads are
    /// *predicated* (CMP + 2×CMOV) and the confidence update is biased
    /// (÷2 on a misprediction).
    Dmdp,
    /// Oracle memory dependence prediction driven by a functional
    /// pre-pass: no delays, no re-executions, no mispredictions.
    Perfect,
}

impl CommModel {
    /// All models, in the paper's reporting order.
    pub const ALL: [CommModel; 4] =
        [CommModel::Baseline, CommModel::NoSq, CommModel::Dmdp, CommModel::Perfect];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CommModel::Baseline => "baseline",
            CommModel::NoSq => "nosq",
            CommModel::Dmdp => "dmdp",
            CommModel::Perfect => "perfect",
        }
    }

    /// Inverse of [`CommModel::name`].
    pub fn from_name(name: &str) -> Option<CommModel> {
        CommModel::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The confidence policy the model's distance predictor uses (§V:
    /// "the only difference is that NoSQ decreases the confidence counter
    /// by one ... DMDP divides the counter by two").
    pub fn confidence_policy(self) -> ConfidencePolicy {
        match self {
            CommModel::Dmdp => ConfidencePolicy::Biased,
            _ => ConfidencePolicy::Balanced,
        }
    }
}

/// Full configuration of one simulated core.
///
/// Defaults reproduce the paper's main configuration (8-wide, 256-entry
/// ROB, 320 physical registers, 16-entry TSO store buffer); the §VI-g
/// alternative configurations are obtained by overriding single fields.
///
/// # Example
///
/// ```
/// use dmdp_core::{CommModel, CoreConfig};
/// let cfg = CoreConfig::new(CommModel::Dmdp);
/// assert_eq!(cfg.width, 8);
/// let narrow = CoreConfig { width: 4, ..CoreConfig::new(CommModel::Dmdp) };
/// assert_eq!(narrow.width, 4);
/// ```
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Communication model under test.
    pub comm: CommModel,
    /// Fetch/decode/rename/issue/retire width in µops per cycle.
    pub width: usize,
    /// Reorder buffer capacity in µops.
    pub rob_entries: usize,
    /// Physical register file size.
    pub phys_regs: usize,
    /// Issue queue capacity.
    pub iq_entries: usize,
    /// Load-execution ports per cycle.
    pub load_ports: usize,
    /// Retired-store buffer capacity.
    pub store_buffer_entries: usize,
    /// Store-buffer consistency model.
    pub consistency: Consistency,
    /// Front-end refill penalty after any pipeline recovery, in cycles.
    pub redirect_penalty: u64,
    /// Coalesce consecutive same-word stores in the store buffer.
    pub coalesce_stores: bool,
    /// Silent-store-aware predictor update: train the distance predictor
    /// on *every* load re-execution rather than only on value mismatches
    /// (paper §IV-C a; on by default for NoSQ and DMDP per §V).
    pub silent_store_update: bool,
    /// Memory system parameters.
    pub mem: MemConfig,
    /// Branch predictor parameters.
    pub branch: BranchConfig,
    /// Store distance predictor parameters (policy is set from `comm`).
    pub distance: DistanceConfig,
    /// T-SSBF parameters.
    pub tssbf: TssbfConfig,
    /// Store Sets parameters (baseline only).
    pub store_sets: StoreSetsConfig,
    /// Multi-core coherence stand-in (§IV-F): every `N` cycles the line
    /// holding the most recently committed store is invalidated, as if
    /// another core wrote it. Exercises the T-SSBF invalidation path
    /// (all words of the line are marked `SSN_commit + 1`, forcing
    /// in-flight loads of that line to re-execute). `None` disables it.
    pub coherence_invalidate_every: Option<u64>,
    /// Safety valve: abort the simulation after this many cycles.
    pub max_cycles: u64,
}

/// Widest pipeline [`CoreConfig::check`] accepts.
const MAX_WIDTH: usize = 64;

/// Largest ROB, physical register file, issue queue or store buffer
/// [`CoreConfig::check`] accepts. A pipeline allocates each structure up
/// front, so an unbounded size would abort the process (a daemon
/// included) on a failed allocation instead of failing the request.
const MAX_ENTRIES: usize = 65_536;

/// Version tag of the simulator's *timing semantics*. Bump whenever a
/// change alters simulated cycle counts or statistics for an unchanged
/// (config, workload) pair — job digests, and so the result store, key
/// on it, so a bump invalidates every stored experiment result.
pub const SIM_VERSION: &str = concat!(env!("CARGO_PKG_VERSION"), "+timing1");

impl CoreConfig {
    /// The paper's main configuration for the given model.
    pub fn new(comm: CommModel) -> CoreConfig {
        CoreConfig {
            comm,
            width: 8,
            rob_entries: 256,
            phys_regs: 320,
            iq_entries: 96,
            load_ports: 2,
            store_buffer_entries: 16,
            consistency: Consistency::Tso,
            redirect_penalty: 8,
            coalesce_stores: true,
            silent_store_update: true,
            mem: MemConfig::default(),
            branch: BranchConfig::default(),
            distance: DistanceConfig {
                policy: comm.confidence_policy(),
                ..DistanceConfig::default()
            },
            tssbf: TssbfConfig::default(),
            store_sets: StoreSetsConfig::default(),
            coherence_invalidate_every: None,
            max_cycles: 2_000_000_000,
        }
    }

    /// A stable identity string covering *every* configuration field,
    /// including the nested memory/predictor sub-configs. Two configs
    /// with equal identities run identical simulations; the campaign
    /// harness hashes this (together with the workload image and
    /// [`SIM_VERSION`]) to decide whether a cached result is reusable.
    pub fn identity(&self) -> String {
        // The derived Debug representation enumerates all fields by name
        // and recurses into the sub-configs, so it changes whenever any
        // knob (or a field's meaning, via renames) changes.
        format!("{self:?}")
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// A message naming the first impossible setting (e.g. too few
    /// physical registers to rename a single instruction group).
    pub fn check(&self) -> Result<(), String> {
        let fail = |ok: bool, msg: String| if ok { Ok(()) } else { Err(msg) };
        // The ceilings come first: the checks below multiply `width`.
        for (what, n, max) in [
            ("width", self.width, MAX_WIDTH),
            ("ROB", self.rob_entries, MAX_ENTRIES),
            ("physical register file", self.phys_regs, MAX_ENTRIES),
            ("issue queue", self.iq_entries, MAX_ENTRIES),
            ("store buffer", self.store_buffer_entries, MAX_ENTRIES),
        ] {
            fail(n <= max, format!("{what} too large: {n}, ceiling {max}"))?;
        }
        let min_regs = dmdp_isa::Reg::NUM_LOGICAL + 5 * self.width;
        fail(self.width > 0, "width must be nonzero".to_string())?;
        fail(
            self.rob_entries >= self.width * 2,
            format!("ROB too small for the width: {} entries, need {}", self.rob_entries, self.width * 2),
        )?;
        fail(
            self.phys_regs >= min_regs,
            format!("physical register file too small: {} registers, need {min_regs}", self.phys_regs),
        )?;
        fail(self.iq_entries >= self.width, "issue queue too small".to_string())?;
        fail(self.load_ports > 0, "need at least one load port".to_string())?;
        fail(self.store_buffer_entries > 0, "store buffer needs entries".to_string())
    }

    /// [`CoreConfig::check`] for the core's own callers.
    ///
    /// # Panics
    ///
    /// Panics with the check's message on an impossible configuration.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CoreConfig::new(CommModel::NoSq);
        assert_eq!(c.rob_entries, 256);
        assert_eq!(c.phys_regs, 320);
        assert_eq!(c.store_buffer_entries, 16);
        assert_eq!(c.consistency, Consistency::Tso);
        c.validate();
    }

    #[test]
    fn check_names_the_impossible_setting() {
        let tiny = CoreConfig { phys_regs: 10, ..CoreConfig::new(CommModel::Dmdp) };
        let err = tiny.check().unwrap_err();
        assert!(err.contains("physical register file too small: 10 registers"), "{err}");
        assert!(CoreConfig { store_buffer_entries: 0, ..CoreConfig::new(CommModel::NoSq) }
            .check()
            .is_err());
    }

    #[test]
    fn check_refuses_sizes_past_their_ceiling() {
        let dmdp = || CoreConfig::new(CommModel::Dmdp);
        let huge = 4_000_000_000;
        for (cfg, what) in [
            (CoreConfig { rob_entries: huge, ..dmdp() }, "ROB too large: 4000000000, ceiling 65536"),
            (CoreConfig { phys_regs: huge, ..dmdp() }, "physical register file too large"),
            (CoreConfig { iq_entries: huge, ..dmdp() }, "issue queue too large"),
            (CoreConfig { store_buffer_entries: huge, ..dmdp() }, "store buffer too large"),
            (CoreConfig { width: usize::MAX, ..dmdp() }, "width too large"),
        ] {
            let err = cfg.check().unwrap_err();
            assert!(err.contains(what), "{err}");
        }
        let n = MAX_ENTRIES;
        let roomy = CoreConfig { rob_entries: n, phys_regs: n, iq_entries: n, ..dmdp() };
        let roomy = CoreConfig { store_buffer_entries: n, width: MAX_WIDTH, ..roomy };
        roomy.check().expect("the ceilings themselves are accepted");
    }

    #[test]
    fn dmdp_gets_biased_policy() {
        assert_eq!(CoreConfig::new(CommModel::Dmdp).distance.policy, ConfidencePolicy::Biased);
        assert_eq!(CoreConfig::new(CommModel::NoSq).distance.policy, ConfidencePolicy::Balanced);
    }

    #[test]
    fn model_names() {
        assert_eq!(CommModel::Dmdp.name(), "dmdp");
        assert_eq!(CommModel::ALL.len(), 4);
    }

    #[test]
    fn identity_distinguishes_configs() {
        let a = CoreConfig::new(CommModel::Dmdp);
        let b = CoreConfig::new(CommModel::Dmdp);
        assert_eq!(a.identity(), b.identity());
        let narrow = CoreConfig { width: 4, ..CoreConfig::new(CommModel::Dmdp) };
        assert_ne!(a.identity(), narrow.identity());
        assert_ne!(a.identity(), CoreConfig::new(CommModel::NoSq).identity());
    }

    #[test]
    #[should_panic(expected = "physical register file")]
    fn tiny_prf_rejected() {
        let mut c = CoreConfig::new(CommModel::Dmdp);
        c.phys_regs = 30;
        c.validate();
    }
}
